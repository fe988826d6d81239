type phase = Lock_wait | Prop_wait | Commit

(* Open-addressing map from non-negative ints to ints: linear probing with
   backward-shift deletion, so there are no tombstones, and bindings,
   lookups and removals allocate nothing once the arrays have grown to the
   peak number of open attempts. It is not [Repdb_store.Hash_index]: that
   table holds any ['a] in a boxed [Entry] per binding, so every insert
   allocates, and it would rebuild itself to clear tombstones every few
   hundred attempts here, where each attempt binds and removes two keys. *)
module Index = struct
  type t = { mutable keys : int array; (* -1: empty *) mutable vals : int array; mutable len : int }

  let create () = { keys = Array.make 64 (-1); vals = Array.make 64 0; len = 0 }
  let length t = t.len

  (* Fibonacci hashing, as in [Repdb_store.Hash_index]. *)
  let home keys key = key * 0x2545F4914F6CDD1D land max_int land (Array.length keys - 1)

  (* The slot holding [key], or the empty slot ending its probe run. *)
  let rec probe keys key i =
    let k = keys.(i) in
    if k = key || k < 0 then i else probe keys key ((i + 1) land (Array.length keys - 1))

  (* [-1] when unbound. *)
  let find t key =
    let i = probe t.keys key (home t.keys key) in
    if t.keys.(i) = key then t.vals.(i) else -1

  let rec set t key v =
    let keys = t.keys in
    if 2 * (t.len + 1) > Array.length keys then begin
      let vals = t.vals in
      t.keys <- Array.make (2 * Array.length keys) (-1);
      t.vals <- Array.make (2 * Array.length keys) 0;
      t.len <- 0;
      Array.iteri (fun i k -> if k >= 0 then set t k vals.(i)) keys;
      set t key v
    end
    else begin
      let i = probe keys key (home keys key) in
      if keys.(i) < 0 then t.len <- t.len + 1;
      keys.(i) <- key;
      t.vals.(i) <- v
    end

  (* Close the hole at [hole] by moving back each later entry of the run
     whose home slot does not lie cyclically in (hole, j]. *)
  let rec shift t hole j =
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let j = (j + 1) land mask in
    let k = keys.(j) in
    if k < 0 then keys.(hole) <- -1
    else if (j - home keys k) land mask >= (j - hole) land mask then begin
      keys.(hole) <- k;
      t.vals.(hole) <- t.vals.(j);
      shift t j j
    end
    else shift t hole j

  let remove t key =
    let i = probe t.keys key (home t.keys key) in
    if t.keys.(i) = key then begin
      t.len <- t.len - 1;
      shift t i i
    end
end

(* One open attempt. The phase times sit in their own all-float record,
   which OCaml stores flat, so accumulating them allocates nothing. *)
type times = { mutable start : float; mutable lock : float; mutable prop : float; mutable commit : float }
type attempt = { mutable site : int; mutable owner : int; times : times }

type t = {
  h_lock : Stats.histogram;
  h_exec : Stats.histogram;
  h_prop : Stats.histogram;
  h_commit : Stats.histogram;
  h_think : Stats.histogram;
  trace : Trace.t;
  by_gid : Index.t; (* gid -> slot of its open attempt *)
  by_owner : Index.t; (* lock owner -> slot *)
  mutable slots : attempt array; (* records are reused once finished *)
  mutable free : int array; (* stack of unused slots *)
  mutable n_free : int;
}

let create ~stats ~trace () =
  {
    h_lock = Stats.histogram stats "span.lock";
    h_exec = Stats.histogram stats "span.exec";
    h_prop = Stats.histogram stats "span.prop";
    h_commit = Stats.histogram stats "span.commit";
    h_think = Stats.histogram stats "span.think";
    trace;
    by_gid = Index.create ();
    by_owner = Index.create ();
    slots = [||];
    free = [||];
    n_free = 0;
  }

let fresh_slot t =
  if t.n_free = 0 then begin
    let n = Array.length t.slots in
    let grown = if n = 0 then 16 else 2 * n in
    t.slots <-
      Array.init grown (fun i ->
          if i < n then t.slots.(i)
          else
            { site = 0; owner = 0; times = { start = 0.0; lock = 0.0; prop = 0.0; commit = 0.0 } });
    (* Push the new slots so the lowest is taken first. *)
    t.free <- Array.init grown (fun i -> grown - 1 - i);
    t.n_free <- grown - n
  end;
  t.n_free <- t.n_free - 1;
  t.free.(t.n_free)

let begin_ t ~gid ~owner ~site ~now =
  let s = fresh_slot t in
  Index.set t.by_gid gid s;
  Index.set t.by_owner owner s;
  let a = t.slots.(s) in
  a.site <- site;
  a.owner <- owner;
  a.times.start <- now;
  a.times.lock <- 0.0;
  a.times.prop <- 0.0;
  a.times.commit <- 0.0

(* Owners without an open attempt (secondary appliers, participants) fall
   through silently. *)
let add t ~owner phase dur =
  if dur > 0.0 then begin
    let s = Index.find t.by_owner owner in
    if s >= 0 then begin
      let r = t.slots.(s).times in
      match phase with
      | Lock_wait -> r.lock <- r.lock +. dur
      | Prop_wait -> r.prop <- r.prop +. dur
      | Commit -> r.commit <- r.commit +. dur
    end
  end

let think t ~site dur = if dur > 0.0 then Stats.observe t.h_think ~site dur

let finish t ~gid ~now =
  let s = Index.find t.by_gid gid in
  if s >= 0 then begin
    let a = t.slots.(s) in
    let r = a.times and site = a.site in
    Index.remove t.by_gid gid;
    Index.remove t.by_owner a.owner;
    t.free.(t.n_free) <- s;
    t.n_free <- t.n_free + 1;
    let total = Float.max 0.0 (now -. r.start) in
    let accounted = r.lock +. r.prop +. r.commit in
    let exec = Float.max 0.0 (total -. accounted) in
    Stats.observe t.h_lock ~site r.lock;
    Stats.observe t.h_exec ~site exec;
    Stats.observe t.h_prop ~site r.prop;
    Stats.observe t.h_commit ~site r.commit;
    if Trace.on t.trace then begin
      (* Lay the phases out back-to-back from the attempt's start so the
         Chrome exporter can render them as nested duration spans. The
         ordering is nominal (lock waits interleave with execution in
         reality); the durations are exact. *)
      let cursor = ref r.start in
      List.iter
        (fun (phase, dur) ->
          if dur > 0.0 then begin
            Trace.record t.trace (Event.Span_phase { gid; site; phase; t0 = !cursor; dur });
            cursor := !cursor +. dur
          end)
        [ ("lock", r.lock); ("exec", exec); ("prop", r.prop); ("commit", r.commit) ]
    end
  end

let open_count t = Index.length t.by_gid
