type txn = { gid : int; begin_ts : float; reads : (int * int) list; writes : int list }

type abort_cause = Stale_read | Ww_conflict | Dangerous

type verdict = Commit of { commit_ts : float; writes : (int * int) list } | Abort of abort_cause

type committed = {
  c_gid : int;
  c_commit : float;
  c_reads : (int * int) list;
  c_writes : (int * int) list;
  mutable in_c : bool; (* has an incoming rw-antidependency from a committed txn *)
  mutable out_c : bool; (* has an outgoing rw-antidependency to a committed txn *)
}

type t = {
  latest : (int, int * float) Hashtbl.t; (* item -> newest version, commit_ts *)
  version_ts : (int * int, float) Hashtbl.t; (* (item, version) -> commit_ts *)
  active : (int, float) Hashtbl.t; (* gid -> begin_ts *)
  mutable recent : committed list; (* newest first *)
  mutable commits : int;
  mutable n_dangerous : int;
}

let create () =
  {
    latest = Hashtbl.create 1024;
    version_ts = Hashtbl.create 4096;
    active = Hashtbl.create 64;
    recent = [];
    commits = 0;
    n_dangerous = 0;
  }

let begin_txn t ~gid ~begin_ts = Hashtbl.replace t.active gid begin_ts
let forget t ~gid = Hashtbl.remove t.active gid

let latest t item =
  Option.value ~default:(0, neg_infinity) (Hashtbl.find_opt t.latest item)

let latest_version t item = fst (latest t item)

(* Was [v_read] the latest version of [item] as of [begin_ts]? Either it
   still is the latest (and was committed by then), or its successor
   committed strictly after the snapshot was taken. A successor evicted from
   the window committed at or before the GC floor, which never exceeds any
   live begin timestamp, so eviction means "visible at begin" — stale. *)
let snapshot_ok t ~begin_ts (item, v_read) =
  let v_lat, lat_ts = latest t item in
  if v_read > v_lat then false
  else if v_read = v_lat then lat_ts <= begin_ts
  else
    match Hashtbl.find_opt t.version_ts (item, v_read + 1) with
    | Some ts -> ts > begin_ts
    | None -> false

(* Every certified write and committed-transaction record older than the
   oldest active begin timestamp can no longer participate in a snapshot
   check or a dangerous structure with anything that certifies later. *)
let gc t ~now =
  let floor = Hashtbl.fold (fun _ b acc -> min b acc) t.active now in
  t.recent <- List.filter (fun r -> r.c_commit > floor) t.recent;
  let dead =
    Hashtbl.fold (fun k ts acc -> if ts <= floor then k :: acc else acc) t.version_ts []
  in
  List.iter (Hashtbl.remove t.version_ts) dead

let intersects keys pairs = List.exists (fun (i, _) -> List.mem i keys) pairs

let certify t ~now (txn : txn) =
  Hashtbl.remove t.active txn.gid;
  if not (List.for_all (snapshot_ok t ~begin_ts:txn.begin_ts) txn.reads) then Abort Stale_read
  else if
    (* First committer wins: a concurrent transaction already committed a
       write to something we also write. *)
    List.exists (fun item -> snd (latest t item) > txn.begin_ts) txn.writes
  then Abort Ww_conflict
  else begin
    let read_items = List.map fst txn.reads in
    let concurrent u = u.c_commit > txn.begin_ts in
    (* Outgoing rw edges: committed concurrent U overwrote something we
       read. Our reads passed the snapshot check, so U's version is
       invisible to us — a genuine antidependency. *)
    let outs = List.filter (fun u -> concurrent u && intersects read_items u.c_writes) t.recent in
    (* Incoming rw edges: committed concurrent V read something we are about
       to overwrite. *)
    let ins = List.filter (fun v -> concurrent v && intersects txn.writes v.c_reads) t.recent in
    if
      (outs <> [] && ins <> [])
      || List.exists (fun u -> u.out_c) outs
      || List.exists (fun v -> v.in_c) ins
    then begin
      (* Either we are the pivot of a dangerous structure, or committing
         would complete one whose pivot already committed. *)
      t.n_dangerous <- t.n_dangerous + 1;
      Abort Dangerous
    end
    else begin
      let vwrites =
        List.map
          (fun item ->
            let v = latest_version t item + 1 in
            Hashtbl.replace t.latest item (v, now);
            Hashtbl.replace t.version_ts (item, v) now;
            (item, v))
          txn.writes
      in
      let r =
        {
          c_gid = txn.gid;
          c_commit = now;
          c_reads = txn.reads;
          c_writes = vwrites;
          in_c = ins <> [];
          out_c = outs <> [];
        }
      in
      List.iter (fun u -> u.in_c <- true) outs;
      List.iter (fun v -> v.out_c <- true) ins;
      t.recent <- r :: t.recent;
      t.commits <- t.commits + 1;
      if t.commits mod 64 = 0 then gc t ~now;
      Commit { commit_ts = now; writes = vwrites }
    end
  end

let dangerous_aborts t = t.n_dangerous

let seed t ~item ~version ~commit_ts =
  Hashtbl.replace t.latest item (version, commit_ts);
  Hashtbl.replace t.version_ts (item, version) commit_ts
