type txn = { gid : int; begin_ts : float; reads : (int * int) list; writes : int list }

type abort_cause = Stale_read | Ww_conflict | Dangerous

type verdict = Commit of { commit_ts : float; writes : (int * int) list } | Abort of abort_cause

type committed = {
  mutable in_c : bool; (* has an incoming rw-antidependency from a committed txn *)
  mutable out_c : bool; (* has an outgoing rw-antidependency to a committed txn *)
}

(* One item's history, newest first: a version and its committed writer, or
   a committed reader ([version] unused). Timestamps never regress, so every
   list is sorted by [ts], newest first. *)
type entry = Nil | Entry of { version : int; ts : float; txn : committed; mutable older : entry }

type item = {
  mutable versions : entry; (* the head is the latest version *)
  mutable readers : entry;
  mutable dirty : bool; (* on [touched] *)
}

type t = {
  items : (int, item) Hashtbl.t;
  active : (int, float) Hashtbl.t; (* gid -> begin_ts *)
  mutable touched : item list; (* items written or read since the last GC *)
  mutable commits : int;
  mutable n_dangerous : int;
}

(* The writer of a pinned version: it forms no edge, and its flags stay false. *)
let seeded = { in_c = false; out_c = false }

(* An item nothing has written or read; never mutated. *)
let absent = { versions = Nil; readers = Nil; dirty = true }

let create () =
  { items = Hashtbl.create 1024; active = Hashtbl.create 64; touched = []; commits = 0; n_dangerous = 0 }

let begin_txn t ~gid ~begin_ts = Hashtbl.replace t.active gid begin_ts
let forget t ~gid = Hashtbl.remove t.active gid
let find t item = match Hashtbl.find t.items item with r -> r | exception Not_found -> absent

(* [item]'s record, created if new, and on [touched]. *)
let touch t item =
  if find t item == absent then Hashtbl.add t.items item { versions = Nil; readers = Nil; dirty = false };
  let r = Hashtbl.find t.items item in
  if not r.dirty then (r.dirty <- true; t.touched <- r :: t.touched);
  r

let latest_version r = match r.versions with Entry e -> e.version | Nil -> 0
let latest_ts r = match r.versions with Entry e -> e.ts | Nil -> neg_infinity

let rec committed_after ~begin_ts v = function
  | Entry e when e.ts > begin_ts -> e.version = v || committed_after ~begin_ts v e.older
  | _ -> false

(* Was [v_read] the latest version of [item] as of [begin_ts]? Either it
   still is the latest (and was committed by then), or its successor
   committed strictly after the snapshot was taken. A successor evicted from
   the window committed at or before the GC floor, which never exceeds any
   later begin timestamp, so eviction means "visible at begin" — stale. *)
let rec snapshot_ok t ~begin_ts = function
  | [] -> true
  | (item, v_read) :: rest ->
      let r = find t item in
      let v_lat = latest_version r in
      (if v_read >= v_lat then v_read = v_lat && latest_ts r <= begin_ts
       else committed_after ~begin_ts (v_read + 1) r.versions)
      && snapshot_ok t ~begin_ts rest

(* First committer wins: a concurrent transaction already committed a write
   to something we also write. *)
let rec ww_conflict t ~begin_ts = function
  | [] -> false
  | item :: rest -> latest_ts (find t item) > begin_ts || ww_conflict t ~begin_ts rest

type flag = No_flag | Flag_in | Flag_out

(* The committed transactions of a list that are concurrent (committed after
   [begin_ts]), as bits: 1 if there is one, 2 if one has an in-edge, 4 if
   one has an out-edge. [set] then gives each of them that edge. *)
let rec scan ~begin_ts ~set acc = function
  | Entry e when e.ts > begin_ts && e.txn == seeded -> scan ~begin_ts ~set acc e.older
  | Entry ({ txn = c; _ } as e) when e.ts > begin_ts ->
      let acc = acc lor (if c.in_c then 3 else 1) lor if c.out_c then 4 else 0 in
      (match set with Flag_in -> c.in_c <- true | Flag_out -> c.out_c <- true | No_flag -> ());
      scan ~begin_ts ~set acc e.older
  | _ -> acc

(* Outgoing rw edges: committed concurrent writers of something we read. Our
   reads passed the snapshot check, so their versions are invisible to us. *)
let rec outs t ~begin_ts ~set acc = function
  | [] -> acc
  | (item, _) :: rest -> outs t ~begin_ts ~set (scan ~begin_ts ~set acc (find t item).versions) rest

(* Incoming rw edges: committed concurrent readers of something we write. *)
let rec ins t ~begin_ts ~set acc = function
  | [] -> acc
  | item :: rest -> ins t ~begin_ts ~set (scan ~begin_ts ~set acc (find t item).readers) rest

let rec add_reader t c ~now = function
  | [] -> ()
  | (item, _) :: rest ->
      let r = touch t item in
      r.readers <- Entry { version = 0; ts = now; txn = c; older = r.readers };
      add_reader t c ~now rest

let rec install t c ~now = function
  | [] -> []
  | item :: rest ->
      let r = touch t item in
      let v = latest_version r + 1 in
      r.versions <- Entry { version = v; ts = now; txn = c; older = r.versions };
      (item, v) :: install t c ~now rest

(* Keep a list's head and its entries newer than [floor]. *)
let rec cut ~floor = function
  | Entry ({ older = Entry o; _ } as e) -> if o.ts > floor then cut ~floor e.older else e.older <- Nil
  | _ -> ()

(* An entry at or before the oldest active begin timestamp cannot take part
   in a check of anything that certifies later. Only the items touched since
   the last GC are trimmed, each down to its head entries. *)
let gc t ~now =
  let floor = Hashtbl.fold (fun _ b acc -> min b acc) t.active now in
  List.iter (fun r -> r.dirty <- false; cut ~floor r.versions; cut ~floor r.readers) t.touched;
  t.touched <- []

let certify t ~now (txn : txn) =
  Hashtbl.remove t.active txn.gid;
  let begin_ts = txn.begin_ts in
  if not (snapshot_ok t ~begin_ts txn.reads) then Abort Stale_read
  else if ww_conflict t ~begin_ts txn.writes then Abort Ww_conflict
  else
    let o = outs t ~begin_ts ~set:No_flag 0 txn.reads in
    let i = ins t ~begin_ts ~set:No_flag 0 txn.writes in
    if o land i land 1 = 1 || o land 4 <> 0 || i land 2 <> 0 then begin
      (* Either we are the pivot of a dangerous structure, or committing
         would complete one whose pivot already committed. *)
      t.n_dangerous <- t.n_dangerous + 1;
      Abort Dangerous
    end
    else begin
      ignore (outs t ~begin_ts ~set:Flag_in 0 txn.reads);
      ignore (ins t ~begin_ts ~set:Flag_out 0 txn.writes);
      let c = { in_c = i <> 0; out_c = o <> 0 } in
      add_reader t c ~now txn.reads;
      let writes = install t c ~now txn.writes in
      t.commits <- t.commits + 1;
      if t.commits mod 64 = 0 then gc t ~now;
      Commit { commit_ts = now; writes }
    end

let dangerous_aborts t = t.n_dangerous

let seed t ~item ~version ~commit_ts =
  let r = touch t item in
  r.versions <- Entry { version; ts = commit_ts; txn = seeded; older = r.versions }
