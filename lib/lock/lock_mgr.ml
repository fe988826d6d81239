module Sim = Repdb_sim.Sim
module Trace = Repdb_obs.Trace
module Event = Repdb_obs.Event
module Stats = Repdb_obs.Stats
module Int_index = Repdb_obs.Int_index

type item = int
type owner = int
type mode = Shared | Exclusive
type outcome = Granted | Timed_out | Deadlock_victim
type policy = [ `Timeout of float | `Detect of float option ]

type stats = { acquires : int; waits : int; timeouts : int; deadlock_aborts : int }

type request = {
  req_owner : owner;
  req_mode : mode;
  req_item : item;
  upgrade : bool;
  arrival : int;
  wait : outcome Sim.once; (* fired by the grant, the timer or the deadlock victim choice *)
}

(* Placeholder for "not waiting"; never queued, never fired. *)
let no_request =
  { req_owner = min_int; req_mode = Shared; req_item = -1; upgrade = false; arrival = 0;
    wait = Sim.once () }

(* One owner's hold set and pending wait. The hold set is an int stack of
   the items it was granted, newest on top, [n_items] deep ([release_all]
   walks it in that order); an item appears twice after an S->X upgrade.
   [req] is its blocked request, else [no_request]. *)
type owner_slot = { mutable items : int array; mutable n_items : int; mutable req : request }

(* The waiter queue is a two-list FIFO: push-back conses onto [q_back],
   upgrades cons onto [q_front], and the head is normalized lazily ([q_back]
   reversed into [q_front] when the front runs dry). Every operation is O(1)
   amortized — the old single-list [queue @ [req]] append was O(n) per
   enqueue, O(n^2) under hot-key contention. [n_live] counts requests whose
   wait has not fired, so emptiness checks never walk the queue.

   An item's holders are either one exclusive owner ([x], else [no_owner])
   or a most-recent-first list of sharers ([sh]): granting an exclusive lock
   stores an int, and no holder carries a separate mode cell. *)
type entry = {
  mutable x : owner;
  mutable sh : owner list;
  mutable q_front : request list; (* head = next to grant; may hold fired requests *)
  mutable q_back : request list; (* reversed tail *)
  mutable n_live : int;
}

(* Items are dense small ints (0 .. n_items-1), so the lock table is a flat
   array grown on demand — no hashing, no bucket allocation on the acquire
   fast path, which profiling showed as the hottest non-kernel function.
   [remap] compresses sparse item ids into dense table slots (per-site
   placed-item ranks at scale); the default is the identity. *)
type t = {
  sim : Sim.t;
  policy : policy;
  remap : item -> int;
  mutable entries : entry array; (* indexed by remapped item *)
  (* Owner -> its slot while it holds a lock or waits, through an
     open-addressing index. Slots and their stacks are reused once their
     owner has released everything, so recording a hold or a wait
     allocates nothing in steady state. *)
  owners : Int_index.t;
  mutable slots : owner_slot array;
  mutable free : int array; (* stack of unused slots *)
  mutable n_free : int;
  mutable n_waiting : int; (* owners with a blocked request *)
  mutable arrivals : int;
  mutable n_acquires : int;
  mutable n_waits : int;
  mutable n_timeouts : int;
  mutable n_deadlock_aborts : int;
  site : int; (* tag on emitted events; 0 for stand-alone managers *)
  on_wait : owner:owner -> dur:float -> unit;
  trace : Trace.t;
  s_acquires : Stats.counter option;
  s_waits : Stats.counter option;
  s_timeouts : Stats.counter option;
  s_deadlocks : Stats.counter option;
}

let create ~sim ~policy ?(site = 0) ?(trace = Trace.disabled) ?stats ?(remap = Fun.id)
    ?(on_wait = fun ~owner:_ ~dur:_ -> ()) () =
  {
    sim;
    policy;
    remap;
    entries = [||];
    owners = Int_index.create 64;
    slots = [||];
    free = [||];
    n_free = 0;
    n_waiting = 0;
    arrivals = 0;
    n_acquires = 0;
    n_waits = 0;
    n_timeouts = 0;
    n_deadlock_aborts = 0;
    site;
    on_wait;
    trace;
    s_acquires = Option.map (fun s -> Stats.counter s "lock.acq") stats;
    s_waits = Option.map (fun s -> Stats.counter s "lock.wait") stats;
    s_timeouts = Option.map (fun s -> Stats.counter s "lock.tmo") stats;
    s_deadlocks = Option.map (fun s -> Stats.counter s "lock.ddl") stats;
  }

let no_owner = min_int

let obs_mode = function Shared -> Event.Shared | Exclusive -> Event.Exclusive
let bump c site = match c with Some c -> Stats.incr c ~site | None -> ()

let entry_of t item =
  let slot = t.remap item in
  if slot < 0 then invalid_arg "Lock_mgr: negative item";
  let n = Array.length t.entries in
  if slot >= n then begin
    let ncap = max 64 (max (slot + 1) (2 * n)) in
    let grown =
      Array.init ncap (fun i ->
          if i < n then t.entries.(i)
          else { x = no_owner; sh = []; q_front = []; q_back = []; n_live = 0 })
    in
    t.entries <- grown
  end;
  t.entries.(slot)

let fresh_slot t =
  if t.n_free = 0 then begin
    let n = Array.length t.slots in
    let grown = if n = 0 then 16 else 2 * n in
    t.slots <-
      Array.init grown (fun i ->
          if i < n then t.slots.(i) else { items = Array.make 8 0; n_items = 0; req = no_request });
    (* Push the new slots so the lowest is taken first. *)
    t.free <- Array.init grown (fun i -> grown - 1 - i);
    t.n_free <- grown - n
  end;
  t.n_free <- t.n_free - 1;
  t.free.(t.n_free)

let free_slot t s =
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1

let slot_of t owner =
  let s = Int_index.find t.owners owner in
  if s >= 0 then t.slots.(s)
  else begin
    let s = fresh_slot t in
    Int_index.set t.owners owner s;
    t.slots.(s)
  end

let record_hold t ~owner item =
  let h = slot_of t owner in
  if h.n_items = Array.length h.items then begin
    let grown = Array.make (2 * h.n_items) 0 in
    Array.blit h.items 0 grown 0 h.n_items;
    h.items <- grown
  end;
  h.items.(h.n_items) <- item;
  h.n_items <- h.n_items + 1

let waiting_req t owner =
  let s = Int_index.find t.owners owner in
  if s >= 0 then t.slots.(s).req else no_request

let set_waiting t owner req =
  let h = slot_of t owner in
  if h.req == no_request then t.n_waiting <- t.n_waiting + 1;
  h.req <- req

(* [owner] stops waiting; its slot goes when it holds nothing either. *)
let clear_waiting t owner =
  let s = Int_index.find t.owners owner in
  if s >= 0 then begin
    let h = t.slots.(s) in
    if h.req != no_request then begin
      h.req <- no_request;
      t.n_waiting <- t.n_waiting - 1;
      if h.n_items = 0 then begin
        Int_index.remove t.owners owner;
        free_slot t s
      end
    end
  end

let compatible mode e =
  match mode with Shared -> e.x = no_owner | Exclusive -> e.x = no_owner && e.sh = []

let rec mem_owner owner = function [] -> false | o :: rest -> o = owner || mem_owner owner rest

(* [sh] without [owner] (an owner shares an item at most once); the list is
   returned as is when [owner] is absent. *)
let rec remove_owner owner = function
  | [] -> []
  | o :: rest as l ->
      if o = owner then rest
      else
        let rest' = remove_owner owner rest in
        if rest' == rest then l else o :: rest'

(* The mode [owner] holds on [e], read off the entry itself. The [Some]s
   are static constants, so the lookup allocates nothing. *)
let held_mode e owner =
  if e.x = owner then Some Exclusive else if mem_owner owner e.sh then Some Shared else None

(* [owner] is the only holder, and holds the item shared. *)
let sole_sharer e owner = e.x = no_owner && match e.sh with [ o ] -> o = owner | _ -> false

let grant e owner = function Shared -> e.sh <- owner :: e.sh | Exclusive -> e.x <- owner

let upgrade e owner =
  e.sh <- [];
  e.x <- owner

let has_live_queue e = e.n_live > 0

(* First request whose wait has not fired, in FIFO order. Fired entries are
   pruned from the front lazily; when the front runs dry the reversed back
   is normalized in. On [Some req], [req] is the head of [e.q_front]. *)
let rec first_live e =
  match e.q_front with
  | r :: rest ->
      if not (Sim.fired r.wait) then Some r
      else begin
        e.q_front <- rest;
        first_live e
      end
  | [] ->
      if e.q_back = [] then None
      else begin
        e.q_front <- List.rev e.q_back;
        e.q_back <- [];
        first_live e
      end

let push_back e req =
  e.q_back <- req :: e.q_back;
  e.n_live <- e.n_live + 1

let push_front e req =
  e.q_front <- req :: e.q_front;
  e.n_live <- e.n_live + 1

(* Grant queued requests from the front while possible. An upgrade request is
   grantable when its owner is the sole remaining holder. *)
let rec service t item e =
  match first_live e with
  | None -> ()
  | Some req ->
      let grantable =
        if req.upgrade then sole_sharer e req.req_owner else compatible req.req_mode e
      in
      if grantable then begin
        if req.upgrade then upgrade e req.req_owner else grant e req.req_owner req.req_mode;
        record_hold t ~owner:req.req_owner item;
        e.q_front <- List.tl e.q_front;
        e.n_live <- e.n_live - 1;
        clear_waiting t req.req_owner;
        t.n_acquires <- t.n_acquires + 1;
        bump t.s_acquires t.site;
        if Trace.on t.trace then
          Trace.record t.trace
            (Event.Lock_grant
               { site = t.site; owner = req.req_owner; item; mode = obs_mode req.req_mode });
        ignore (Sim.fire req.wait Granted);
        service t item e
      end

(* Wake a waiting request with a failure outcome and let successors advance. *)
let fail_request t req outcome =
  if not (Sim.fired req.wait) then begin
    clear_waiting t req.req_owner;
    (match outcome with
    | Timed_out ->
        t.n_timeouts <- t.n_timeouts + 1;
        bump t.s_timeouts t.site;
        if Trace.on t.trace then
          Trace.record t.trace
            (Event.Lock_timeout { site = t.site; owner = req.req_owner; item = req.req_item })
    | Deadlock_victim ->
        t.n_deadlock_aborts <- t.n_deadlock_aborts + 1;
        bump t.s_deadlocks t.site;
        if Trace.on t.trace then
          Trace.record t.trace
            (Event.Lock_deadlock { site = t.site; owner = req.req_owner; item = req.req_item })
    | Granted -> assert false);
    let e = entry_of t req.req_item in
    (* The request stays in the queue as a fired tombstone (pruned lazily by
       [first_live]), but it no longer counts as live. *)
    e.n_live <- e.n_live - 1;
    ignore (Sim.fire req.wait outcome);
    service t req.req_item e
  end

(* Owners a blocked request waits behind: current holders plus every live
   request queued ahead of it (granting is FIFO, so those block it too). *)
let blockers_of t req =
  let e = entry_of t req.req_item in
  let ahead =
    let rec take acc = function
      | [] -> acc
      | r :: _ when r == req -> acc
      | r :: rest -> take (if Sim.fired r.wait then acc else r.req_owner :: acc) rest
    in
    take [] (e.q_front @ List.rev e.q_back)
  in
  let holders = if e.x <> no_owner then [ e.x ] else e.sh in
  List.sort_uniq Int.compare (List.filter (fun o -> o <> req.req_owner) (holders @ ahead))

let waiting_for t ~owner =
  let req = waiting_req t owner in
  if req == no_request then [] else blockers_of t req

(* Detect a waits-for cycle reachable from [start]; return its nodes. *)
let find_cycle t start =
  let on_stack = Hashtbl.create 16 in
  let visited = Hashtbl.create 16 in
  let exception Cycle of owner list in
  let rec dfs stack o =
    if Hashtbl.mem on_stack o then begin
      (* Cut the stack down to the cycle. *)
      let rec cut acc = function
        | [] -> acc
        | x :: rest -> if x = o then x :: acc else cut (x :: acc) rest
      in
      raise (Cycle (cut [] stack))
    end;
    if not (Hashtbl.mem visited o) then begin
      Hashtbl.replace visited o ();
      Hashtbl.replace on_stack o ();
      List.iter (dfs (o :: stack)) (waiting_for t ~owner:o);
      Hashtbl.remove on_stack o
    end
  in
  try
    dfs [] start;
    None
  with Cycle nodes -> Some nodes

(* Abort the latest-arriving waiter in each cycle through [start] until no
   cycle remains (the fair victim policy from Section 2 of the paper). *)
let rec resolve_deadlocks t start =
  match find_cycle t start with
  | None -> ()
  | Some nodes ->
      let waiting_nodes =
        List.filter_map
          (fun o ->
            let req = waiting_req t o in
            if req == no_request then None else Some req)
          nodes
      in
      (match waiting_nodes with
      | [] -> () (* cannot happen: every node in a cycle is waiting *)
      | first :: rest ->
          let victim = List.fold_left (fun a r -> if r.arrival > a.arrival then r else a) first rest in
          fail_request t victim Deadlock_victim;
          if victim.req_owner <> start then resolve_deadlocks t start)

let trace_grant t ~owner item mode =
  if Trace.on t.trace then
    Trace.record t.trace (Event.Lock_grant { site = t.site; owner; item; mode = obs_mode mode })

(* Queue a request (an upgrade at the front) and block until it is granted
   or fails. *)
let wait t e ~owner item mode ~upgrade =
  t.arrivals <- t.arrivals + 1;
  let req =
    { req_owner = owner; req_mode = mode; req_item = item; upgrade; arrival = t.arrivals;
      wait = Sim.once () }
  in
  if upgrade then push_front e req else push_back e req;
  t.n_waits <- t.n_waits + 1;
  bump t.s_waits t.site;
  if Trace.on t.trace then
    Trace.record t.trace
      (Event.Lock_wait
         { site = t.site; owner = req.req_owner; item = req.req_item; mode = obs_mode req.req_mode });
  set_waiting t req.req_owner req;
  let t0 = Sim.now t.sim in
  (* The requester may be picked as a deadlock victim here, before it parks:
     [Sim.fire] then resumes it as soon as it does. *)
  (match t.policy with
  | `Timeout d -> Sim.after t.sim d (fun () -> fail_request t req Timed_out)
  | `Detect fallback ->
      (match fallback with
      | Some d -> Sim.after t.sim d (fun () -> fail_request t req Timed_out)
      | None -> ());
      resolve_deadlocks t req.req_owner);
  let outcome = Sim.await req.wait in
  t.on_wait ~owner:req.req_owner ~dur:(Sim.now t.sim -. t0);
  outcome

let acquire t ~owner item mode =
  if owner = no_owner then invalid_arg "Lock_mgr: owner min_int is reserved";
  let e = entry_of t item in
  if Trace.on t.trace then
    Trace.record t.trace (Event.Lock_request { site = t.site; owner; item; mode = obs_mode mode });
  match (held_mode e owner, mode) with
  | Some Exclusive, _ | Some Shared, Shared ->
      t.n_acquires <- t.n_acquires + 1;
      bump t.s_acquires t.site;
      trace_grant t ~owner item mode;
      Granted (* re-entrant *)
  | Some Shared, Exclusive ->
      (* Upgrade: immediate if sole holder, else wait at the queue front. *)
      if sole_sharer e owner then begin
        upgrade e owner;
        record_hold t ~owner item;
        t.n_acquires <- t.n_acquires + 1;
        bump t.s_acquires t.site;
        trace_grant t ~owner item Exclusive;
        Granted
      end
      else wait t e ~owner item Exclusive ~upgrade:true
  | None, _ ->
      if (not (has_live_queue e)) && compatible mode e then begin
        grant e owner mode;
        record_hold t ~owner item;
        t.n_acquires <- t.n_acquires + 1;
        bump t.s_acquires t.site;
        trace_grant t ~owner item mode;
        Granted
      end
      else wait t e ~owner item mode ~upgrade:false

let release_all t ~owner =
  (* A pending wait by this owner is aborted first so its process wakes. *)
  let req = waiting_req t owner in
  if req != no_request then fail_request t req Deadlock_victim;
  let s = Int_index.find t.owners owner in
  if s >= 0 then begin
    if Trace.on t.trace then Trace.record t.trace (Event.Lock_release { site = t.site; owner });
    (* Unbound before the walk and freed after it: [service] grants locks
       to other owners meanwhile, and they must not take this slot. *)
    Int_index.remove t.owners owner;
    let h = t.slots.(s) in
    (* Newest first. The stack may name an item twice (S then X after an
       upgrade); the second pass just re-services an already-clean entry. *)
    for k = h.n_items - 1 downto 0 do
      let item = h.items.(k) in
      let e = entry_of t item in
      if e.x = owner then e.x <- no_owner else e.sh <- remove_owner owner e.sh;
      service t item e
    done;
    h.n_items <- 0;
    free_slot t s
  end

let holders t item =
  let slot = t.remap item in
  if slot < 0 || slot >= Array.length t.entries then []
  else
    let e = t.entries.(slot) in
    if e.x <> no_owner then [ (e.x, Exclusive) ] else List.map (fun o -> (o, Shared)) e.sh

let abort_waiter t ~owner =
  let req = waiting_req t owner in
  if req == no_request then false
  else begin
    fail_request t req Deadlock_victim;
    true
  end

let holds t ~owner item =
  let slot = t.remap item in
  if slot < 0 || slot >= Array.length t.entries then None
  else held_mode t.entries.(slot) owner

let stats t =
  {
    acquires = t.n_acquires;
    waits = t.n_waits;
    timeouts = t.n_timeouts;
    deadlock_aborts = t.n_deadlock_aborts;
  }

let locks_held t =
  Array.fold_left
    (fun acc e -> acc + (if e.x <> no_owner then 1 else List.length e.sh))
    0 t.entries
let lock_waiters t = t.n_waiting
