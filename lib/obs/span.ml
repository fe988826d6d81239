type phase = Lock_wait | Prop_wait | Commit

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
  by_gid : Int_index.t; (* gid -> slot of its open attempt *)
  by_owner : Int_index.t; (* lock owner -> slot *)
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
    by_gid = Int_index.create 64;
    by_owner = Int_index.create 64;
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
  Int_index.set t.by_gid gid s;
  Int_index.set t.by_owner owner s;
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
    let s = Int_index.find t.by_owner owner in
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
  let s = Int_index.find t.by_gid gid in
  if s >= 0 then begin
    let a = t.slots.(s) in
    let r = a.times and site = a.site in
    Int_index.remove t.by_gid gid;
    Int_index.remove t.by_owner a.owner;
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

let open_count t = Int_index.length t.by_gid
