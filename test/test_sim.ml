(* Tests for the discrete-event kernel: heap, RNG, scheduler, condition
   variables, mailboxes and resources. *)

module Sim = Repdb_sim.Sim
module Heap = Repdb_sim.Heap
module Rng = Repdb_sim.Rng
module Condvar = Repdb_sim.Condvar
module Mailbox = Repdb_sim.Mailbox
module Resource = Repdb_sim.Resource

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- heap ---------------------------------------------------------------- *)

(* The minimum's time, read the way the scheduler reads it. *)
let top_time h =
  let c = [| nan |] in
  if Heap.due h c ~at_now:false infinity then c.(0) else invalid_arg "top_time: empty heap"

let test_heap_order () =
  let h = Heap.create () in
  List.iteri (fun seq t -> Heap.push h [| t |] ~seq (int_of_float t)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let out = List.init 5 (fun _ -> Heap.pop_top h) in
  check Alcotest.(list int) "sorted" [ 1; 2; 3; 4; 5 ] out;
  checkb "empty" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for seq = 0 to 9 do
    Heap.push h [| 1.0 |] ~seq seq
  done;
  let out = List.init 10 (fun _ -> Heap.pop_top h) in
  check Alcotest.(list int) "ties resolved FIFO" (List.init 10 Fun.id) out

let test_heap_large () =
  let h = Heap.create () in
  let rng = Rng.create 1 in
  let times = List.init 1000 (fun i -> (Rng.float rng, i)) in
  List.iter (fun (t, seq) -> Heap.push h [| t |] ~seq seq) times;
  checki "size" 1000 (Heap.size h);
  let rec drain last n =
    if Heap.is_empty h then n
    else begin
      let t = top_time h in
      ignore (Heap.pop_top h);
      checkb "non-decreasing" true (t >= last);
      drain t (n + 1)
    end
  in
  checki "drained all" 1000 (drain neg_infinity 0);
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop_top: empty heap") (fun () ->
      ignore (Heap.pop_top h));
  checki "size empty" 0 (Heap.size h)

let test_heap_min_time () =
  let h = Heap.create () in
  let c = [| nan |] in
  checkb "none" false (Heap.due h c ~at_now:false infinity);
  Heap.push h [| 7.0 |] ~seq:0 ();
  checkb "not due before it" false (Heap.due h c ~at_now:false 6.0);
  checkb "some" true (Heap.due h c ~at_now:false infinity && c.(0) = 7.0)

(* --- rng ----------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 99 and b = Rng.create 99 in
  for _ = 1 to 100 do
    checkb "same stream" true (Rng.next_int64 a = Rng.next_int64 b)
  done

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 13 in
    checkb "in range" true (v >= 0 && v < 13)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    checkb "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_bool_extremes () =
  let rng = Rng.create 4 in
  for _ = 1 to 100 do
    checkb "p=1" true (Rng.bool rng 1.0);
    checkb "p=0" false (Rng.bool rng 0.0)
  done

let test_rng_pick_shuffle () =
  let rng = Rng.create 5 in
  let arr = Array.init 10 Fun.id in
  for _ = 1 to 100 do
    let v = Rng.pick rng arr in
    checkb "member" true (v >= 0 && v < 10)
  done;
  let copy = Array.copy arr in
  Rng.shuffle rng copy;
  Array.sort compare copy;
  check Alcotest.(array int) "permutation" arr copy;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

let test_rng_split () =
  let a = Rng.create 11 in
  let b = Rng.split a in
  let va = Rng.next_int64 a and vb = Rng.next_int64 b in
  checkb "independent streams differ" true (va <> vb)

(* --- scheduler ----------------------------------------------------------- *)

let test_event_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim 3.0 (fun () -> log := 3 :: !log);
  Sim.at sim 1.0 (fun () -> log := 1 :: !log);
  Sim.at sim 2.0 (fun () -> log := 2 :: !log);
  Sim.run sim;
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !log);
  check Alcotest.(float 1e-9) "clock at last event" 3.0 (Sim.now sim)

let test_delay_sequencing () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      log := (Sim.now sim, "start") :: !log;
      Sim.delay 10.0;
      log := (Sim.now sim, "mid") :: !log;
      Sim.delay 5.0;
      log := (Sim.now sim, "end") :: !log);
  Sim.run sim;
  check
    Alcotest.(list (pair (float 1e-9) string))
    "delays advance the clock"
    [ (0.0, "start"); (10.0, "mid"); (15.0, "end") ]
    (List.rev !log)

let test_negative_delay_rejected () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.delay (-1.0));
  (match Sim.run sim with
  | exception Sim.Stuck (Invalid_argument _) -> ()
  | () -> Alcotest.fail "expected Stuck");
  Alcotest.check_raises "at in the past" (Invalid_argument "Sim.at: time is in the past")
    (fun () ->
      let sim = Sim.create () in
      Sim.at sim 5.0 ignore;
      Sim.run sim;
      Sim.at sim 1.0 ignore)

let test_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Sim.delay 10.0;
    tick ()
  in
  Sim.spawn sim tick;
  Sim.run_until sim 55.0;
  checki "ticks up to horizon" 6 !count;
  (* t=0,10,20,30,40,50 *)
  check Alcotest.(float 1e-9) "clock at horizon" 55.0 (Sim.now sim);
  (* A heap that drains before the horizon leaves the clock at its last
     event. *)
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.delay 10.0);
  Sim.run_until sim 55.0;
  check Alcotest.(float 1e-9) "clock at last event" 10.0 (Sim.now sim)

let test_spawn_at () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn_at sim 30.0 (fun () ->
      log := ("start", Sim.now sim) :: !log;
      Sim.delay 5.0;
      log := ("end", Sim.now sim) :: !log);
  Sim.run sim;
  check
    Alcotest.(list (pair string (float 1e-9)))
    "starts at its instant" [ ("start", 30.0); ("end", 35.0) ] (List.rev !log);
  Alcotest.check_raises "past" (Invalid_argument "Sim.spawn_at: time is in the past") (fun () ->
      Sim.spawn_at sim 10.0 ignore)

let test_nested_spawn () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay 1.0;
      Sim.spawn sim (fun () ->
          Sim.delay 2.0;
          log := "inner" :: !log);
      log := "outer" :: !log);
  Sim.run sim;
  check Alcotest.(list string) "inner after outer" [ "outer"; "inner" ] (List.rev !log)

let test_suspend_resume_once () =
  let sim = Sim.create () in
  let resume_fn = ref ignore in
  let hits = ref 0 in
  Sim.spawn sim (fun () ->
      Sim.suspend (fun resume -> resume_fn := resume);
      incr hits);
  Sim.run sim;
  checki "parked" 0 !hits;
  !resume_fn ();
  !resume_fn ();
  (* second resume must be ignored *)
  Sim.run sim;
  checki "resumed exactly once" 1 !hits

let test_suspend_value () =
  let sim = Sim.create () in
  let got = ref 0 in
  Sim.spawn sim (fun () ->
      let v = Sim.suspend (fun resume -> Sim.after sim 3.0 (fun () -> resume 42)) in
      got := v);
  Sim.run sim;
  checki "value delivered" 42 !got

let test_events_executed () =
  let sim = Sim.create () in
  for i = 1 to 5 do
    Sim.at sim (float_of_int i) ignore
  done;
  Sim.run sim;
  checki "counted" 5 (Sim.events_executed sim)

(* --- condvar ------------------------------------------------------------- *)

let test_condvar_signal_fifo () =
  let sim = Sim.create () in
  let cv = Condvar.create () in
  let log = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Condvar.await cv;
        log := i :: !log)
  done;
  Sim.after sim 1.0 (fun () -> Condvar.signal cv);
  Sim.after sim 2.0 (fun () -> Condvar.signal cv);
  Sim.after sim 3.0 (fun () -> Condvar.signal cv);
  Sim.run sim;
  check Alcotest.(list int) "FIFO wakeups" [ 1; 2; 3 ] (List.rev !log)

let test_condvar_broadcast () =
  let sim = Sim.create () in
  let cv = Condvar.create () in
  let woken = ref 0 in
  for _ = 1 to 5 do
    Sim.spawn sim (fun () ->
        Condvar.await cv;
        incr woken)
  done;
  Sim.after sim 1.0 (fun () ->
      Alcotest.(check int) "waiters" 5 (Condvar.waiters cv);
      Condvar.broadcast cv);
  Sim.run sim;
  checki "all woken" 5 !woken

let test_condvar_timeout () =
  let sim = Sim.create () in
  let cv = Condvar.create () in
  let results = ref [] in
  Sim.spawn sim (fun () ->
      let r = Condvar.await_timeout sim cv 10.0 in
      results := (Sim.now sim, r) :: !results);
  Sim.spawn sim (fun () ->
      let r = Condvar.await_timeout sim cv 50.0 in
      results := (Sim.now sim, r) :: !results);
  Sim.after sim 20.0 (fun () -> Condvar.signal cv);
  Sim.run sim;
  check
    Alcotest.(list (pair (float 1e-9) bool))
    "first timed out, second signalled"
    [ (10.0, false); (20.0, true) ]
    (List.rev !results)

(* --- mailbox ------------------------------------------------------------- *)

let test_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Sim.after sim 1.0 (fun () ->
      Mailbox.send mb "a";
      Mailbox.send mb "b";
      Mailbox.send mb "c");
  Sim.run sim;
  check Alcotest.(list string) "in order" [ "a"; "b"; "c" ] (List.rev !got)

let test_mailbox_buffering () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  Mailbox.send mb 1;
  Mailbox.send mb 2;
  checki "length" 2 (Mailbox.length mb);
  checkb "peek" true (Mailbox.peek mb = Some 1);
  let got = ref [] in
  Sim.spawn sim (fun () ->
      got := Mailbox.recv mb :: !got;
      got := Mailbox.recv mb :: !got);
  Sim.run sim;
  check Alcotest.(list int) "buffered order" [ 1; 2 ] (List.rev !got);
  checkb "empty" true (Mailbox.is_empty mb)

let test_mailbox_recv_timeout () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let r1 = ref (Some 0) and r2 = ref None in
  Sim.spawn sim (fun () -> r1 := Mailbox.recv_timeout sim mb 5.0);
  Sim.run sim;
  checkb "timed out" true (!r1 = None);
  Sim.spawn sim (fun () -> r2 := Mailbox.recv_timeout sim mb 5.0);
  Sim.after sim 2.0 (fun () -> Mailbox.send mb 9);
  Sim.run sim;
  checkb "delivered" true (!r2 = Some 9)

let test_mailbox_timeout_does_not_lose_messages () =
  (* A message sent after a receiver timed out must stay in the queue. *)
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  Sim.spawn sim (fun () -> ignore (Mailbox.recv_timeout sim mb 5.0));
  Sim.after sim 10.0 (fun () -> Mailbox.send mb 1);
  Sim.run sim;
  checki "message kept" 1 (Mailbox.length mb)

(* --- resource ------------------------------------------------------------ *)

let test_resource_serialises () =
  let sim = Sim.create () in
  let r = Resource.create ~sim ~capacity:1 () in
  let log = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Resource.use r 10.0;
        log := (i, Sim.now sim) :: !log)
  done;
  Sim.run sim;
  check
    Alcotest.(list (pair int (float 1e-9)))
    "FIFO service" [ (1, 10.0); (2, 20.0); (3, 30.0) ] (List.rev !log)

let test_resource_capacity () =
  let sim = Sim.create () in
  let r = Resource.create ~sim ~capacity:2 () in
  let log = ref [] in
  for i = 1 to 4 do
    Sim.spawn sim (fun () ->
        Resource.use r 10.0;
        log := (i, Sim.now sim) :: !log)
  done;
  Sim.run sim;
  check
    Alcotest.(list (pair int (float 1e-9)))
    "two at a time"
    [ (1, 10.0); (2, 10.0); (3, 20.0); (4, 20.0) ]
    (List.rev !log)

let test_resource_errors () =
  let sim = Sim.create () in
  Alcotest.check_raises "capacity 0" (Invalid_argument "Resource.create: capacity must be >= 1")
    (fun () -> ignore (Resource.create ~sim ~capacity:0 ()));
  let r = Resource.create ~sim ~capacity:1 () in
  Alcotest.check_raises "release unheld" (Invalid_argument "Resource.release: not held")
    (fun () -> Resource.release r)

(* A negative or NaN duration is refused at the call, before [use] takes a
   unit or queues, whether a unit is free or not. *)
let test_resource_use_rejects () =
  List.iter
    (fun d ->
      let sim = Sim.create () in
      let r = Resource.create ~sim ~capacity:1 () in
      let refused = ref [] in
      let try_use () =
        let before = (Resource.available r, Resource.queue_length r) in
        (try Resource.use r d with Invalid_argument m -> refused := m :: !refused);
        check Alcotest.(pair int int) "unchanged" before (Resource.available r, Resource.queue_length r)
      in
      Sim.spawn sim try_use;
      Sim.spawn sim (fun () ->
          Resource.acquire r;
          Sim.spawn sim try_use;
          Sim.delay 1.0;
          Resource.release r);
      Sim.run sim;
      check Alcotest.(list string) "uncontended, then contended"
        [ "Resource.use: negative duration"; "Resource.use: negative duration" ] !refused;
      checki "unit back" 1 (Resource.available r))
    [ -1.0; nan ]

(* The closure-queue resource that preceded {!Sim.waitq}, kept as the
   reference model: each waiter is a one-shot [Sim.suspend] resume wrapped
   in a closure. *)
module Ref_resource = struct
  type t = { cap : int; mutable free : int; waiters : (unit -> unit) Queue.t }

  let create ~capacity () = { cap = capacity; free = capacity; waiters = Queue.create () }
  let available t = t.free
  let queue_length t = Queue.length t.waiters

  let acquire t =
    if t.free > 0 then t.free <- t.free - 1
    else Sim.suspend (fun resume -> Queue.add (fun () -> resume ()) t.waiters)

  let release t =
    match Queue.take_opt t.waiters with
    | Some wake -> wake ()
    | None ->
        if t.free >= t.cap then invalid_arg "Resource.release: not held";
        t.free <- t.free + 1

  let use t d =
    acquire t;
    Sim.delay d;
    release t
end

type res_op = Use of float | Hold of float | Sleep of float

(* Run a script on a fresh kernel: process [p] starts at [start] and runs
   its ops; every grant and release logs the process, op index, time,
   [available] and [queue_length]. Returns the log, the events executed and
   the uses that queued (issued while no unit was free). *)
let run_resource_script ~acquire ~release ~use ~available ~queue_length r sim script =
  let log = ref [] and queued = ref 0 in
  let note p i what = log := (p, i, what, Sim.now sim, available r, queue_length r) :: !log in
  List.iteri
    (fun p (start, ops) ->
      Sim.at sim start (fun () ->
          Sim.spawn sim (fun () ->
              List.iteri
                (fun i op ->
                  match op with
                  | Use d ->
                      if available r = 0 then incr queued;
                      use r d;
                      note p i "used"
                  | Hold d ->
                      acquire r;
                      note p i "granted";
                      Sim.delay d;
                      release r;
                      note p i "released"
                  | Sleep d -> Sim.delay d)
                ops)))
    script;
  Sim.run sim;
  (List.rev !log, Sim.events_executed sim, !queued)

(* Durations from a small set, so grants and releases tie at one instant;
   Table 1's CPU costs 0.05, 0.1 and 0.15 (with 0.5) add up to float sums
   that tie only sometimes. *)
let gen_resource_script =
  let open QCheck2.Gen in
  let dur = oneofl [ 0.0; 0.05; 0.1; 0.15; 0.5; 1.0; 2.5; 5.0 ] in
  let op = oneof [ map (fun d -> Use d) dur; map (fun d -> Hold d) dur; map (fun d -> Sleep d) dur ] in
  pair (int_range 1 3) (list_size (int_range 1 12) (pair dur (list_size (int_range 0 8) op)))

(* The logs are equal, and so are the event counts once each queued use is
   charged the one resumption its hand-off saves: the reference resumes it
   at its grant and again after its hold, [Resource.use] only after. *)
let prop_resource_matches_reference =
  QCheck2.Test.make ~name:"resource matches closure-queue reference" ~count:300
    gen_resource_script (fun (capacity, script) ->
      let sim = Sim.create () in
      let r = Resource.create ~sim ~capacity () in
      let log, events, queued =
        Resource.(run_resource_script ~acquire ~release ~use ~available ~queue_length) r sim script
      in
      let sim = Sim.create () in
      let m = Ref_resource.create ~capacity () in
      let ref_log, ref_events, _ =
        Ref_resource.(run_resource_script ~acquire ~release ~use ~available ~queue_length)
          m sim script
      in
      log = ref_log && ref_events = events + queued)

(* --- qcheck properties ---------------------------------------------------- *)

let prop_rng_int_in_range =
  QCheck2.Test.make ~name:"rng int stays in range" ~count:500
    QCheck2.Gen.(pair int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) (float_bound_inclusive 1000.0))
    (fun times ->
      let h = Heap.create () in
      List.iteri (fun seq t -> Heap.push h [| t |] ~seq t) times;
      let rec drain last =
        if Heap.is_empty h then true
        else
          let t = top_time h in
          ignore (Heap.pop_top h);
          t >= last && drain t
      in
      drain neg_infinity)

(* Model check for the hole-sifting rewrite: interleave pushes and pops and
   require the exact drain sequence (times, seqs and values) of a sorted
   list. Duplicate times exercise the seq tiebreak. *)
let prop_heap_matches_sorted_model =
  QCheck2.Test.make ~name:"heap matches sorted-list model" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 120) (int_range 0 15))
        (int_range 0 40))
    (fun (raw_times, pops_mid) ->
      let h = Heap.create () in
      let entries = List.mapi (fun seq t -> (float_of_int t, seq)) raw_times in
      let model = List.sort compare entries in
      (* Push everything, pop a prefix mid-stream, push nothing more, drain:
         intermediate pops must already follow the model order. *)
      List.iter (fun (time, seq) -> Heap.push h [| time |] ~seq (time, seq)) entries;
      let n = List.length entries in
      let pop _ =
        let t = top_time h in
        (t, Heap.pop_top h)
      in
      let popped = List.init (min pops_mid n) pop in
      let rest = List.init (Heap.size h) pop in
      let got = popped @ rest in
      Heap.is_empty h
      && List.for_all2 (fun (mt, ms) (t, (vt, vs)) -> mt = t && mt = vt && ms = vs) model got)

(* --- reference kernel -------------------------------------------------------- *)

(* The heap-only kernel that preceded the lane, copied verbatim less three
   unused accessors: every event, same-instant ones included, goes through
   one (time, seq) heap, and every resume is a closure. The lane kernel must
   execute any script exactly as it does. *)
module Ref_heap = struct
  type 'a t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable vals : 'a array;
    mutable len : int;
  }

  let create () = { times = [||]; seqs = [||]; vals = [||]; len = 0 }
  let is_empty h = h.len = 0

  let grow h v =
    let cap = Array.length h.times in
    if h.len = cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let nt = Array.make ncap 0.0 in
      let ns = Array.make ncap 0 in
      let nv = Array.make ncap v in
      Array.blit h.times 0 nt 0 h.len;
      Array.blit h.seqs 0 ns 0 h.len;
      Array.blit h.vals 0 nv 0 h.len;
      h.times <- nt;
      h.seqs <- ns;
      h.vals <- nv
    end

  let push h ~time ~seq value =
    grow h value;
    let times = h.times and seqs = h.seqs and vals = h.vals in
    let i = ref h.len in
    h.len <- h.len + 1;
    (* Sift the hole up: parents larger than the new entry move down a level. *)
    let moving = ref true in
    while !moving && !i > 0 do
      let p = (!i - 1) / 2 in
      let pt = times.(p) in
      if time < pt || (time = pt && seq < seqs.(p)) then begin
        times.(!i) <- pt;
        seqs.(!i) <- seqs.(p);
        vals.(!i) <- vals.(p);
        i := p
      end
      else moving := false
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    vals.(!i) <- value

  let top_time h =
    if h.len = 0 then invalid_arg "Heap.top_time: empty heap";
    h.times.(0)

  let pop_top h =
    if h.len = 0 then invalid_arg "Heap.pop_top: empty heap";
    let min_v = h.vals.(0) in
    h.len <- h.len - 1;
    let n = h.len in
    if n > 0 then begin
      let times = h.times and seqs = h.seqs and vals = h.vals in
      (* Sift the root hole down: the smaller child moves up one level until
         the old last leaf fits. *)
      let time = times.(n) and seq = seqs.(n) and v = vals.(n) in
      let i = ref 0 in
      let moving = ref true in
      while !moving do
        let l = (2 * !i) + 1 in
        if l >= n then moving := false
        else begin
          let r = l + 1 in
          let c =
            if
              r < n
              && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
            then r
            else l
          in
          if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
            times.(!i) <- times.(c);
            seqs.(!i) <- seqs.(c);
            vals.(!i) <- vals.(c);
            i := c
          end
          else moving := false
        end
      done;
      times.(!i) <- time;
      seqs.(!i) <- seq;
      vals.(!i) <- v;
      (* Drop the freed slot's payload reference so popped closures are not
         retained by the heap (duplicate a live value instead). *)
      vals.(n) <- vals.(0)
    end;
    min_v
end

module Ref_sim = struct
  open Effect.Deep

  type t = {
    clock : float array;
        (* One-element flat float array: a [mutable clock : float] field in a
           mixed record is boxed, so every clock advance would allocate. *)
    mutable seq : int;
    mutable executed : int;
    events : (unit -> unit) Ref_heap.t;
  }

  (* A FIFO ring of parked continuations. [park] is the effect value and
     [on_park] its handler, both allocated once with the queue, so parking
     allocates only the continuation the runtime captures. The ring's
     capacity is a power of two; slots outside [head, head + len) keep
     continuations that were already resumed, which hold no stack. *)
  type waitq = {
    sim : t;
    mutable ring : (unit, unit) continuation array;
    mutable head : int;
    mutable len : int;
    park : unit Effect.t;
    on_park : ((unit, unit) continuation -> unit) option;
  }

  type _ Effect.t +=
    | Delay : unit Effect.t
    | Park : waitq -> unit Effect.t
    | Suspend : (('a -> unit) -> unit) -> 'a Effect.t

  exception Stuck of exn

  let create () = { clock = [| 0.0 |]; seq = 0; executed = 0; events = Ref_heap.create () }

  let now t = t.clock.(0)
  let events_executed t = t.executed

  let schedule t time fn =
    t.seq <- t.seq + 1;
    Ref_heap.push t.events ~time ~seq:t.seq fn

  let at t time fn =
    if time < t.clock.(0) then invalid_arg "Sim.at: time is in the past";
    schedule t time fn

  let after t d fn =
    if d < 0.0 then invalid_arg "Sim.after: negative delay";
    schedule t (t.clock.(0) +. d) fn

  (* --- wait queues ------------------------------------------------------------ *)

  let push q k =
    let cap = Array.length q.ring in
    if q.len = cap then begin
      let ring = Array.make (if cap = 0 then 8 else 2 * cap) k in
      for i = 0 to q.len - 1 do
        ring.(i) <- q.ring.((q.head + i) land (cap - 1))
      done;
      q.ring <- ring;
      q.head <- 0
    end;
    q.ring.((q.head + q.len) land (Array.length q.ring - 1)) <- k;
    q.len <- q.len + 1

  let waitq sim =
    let rec q =
      { sim; ring = [||]; head = 0; len = 0; park = Park q; on_park = Some (fun k -> push q k) }
    in
    q


  let wake q =
    if q.len = 0 then false
    else begin
      let k = q.ring.(q.head) in
      q.head <- (q.head + 1) land (Array.length q.ring - 1);
      q.len <- q.len - 1;
      let t = q.sim in
      schedule t t.clock.(0) (fun () -> continue k ());
      true
    end

  (* --- processes ---------------------------------------------------------------- *)

  (* [delay]'s duration travels through this per-domain cell rather than in
     the effect, so [Delay] is a constant. Per domain, not global: pools run
     kernels on several domains at once. The handler runs on the performing
     domain right after [perform], before the process can delay again. *)
  let delay_arg = Domain.DLS.new_key (fun () -> [| 0.0 |])

  (* Run [f] as a process: effects [Delay], [Park] and [Suspend] park the
     computation and re-enter through the event heap. The handler is
     installed deeply, so resumed continuations keep it. [Delay]'s handler
     is built once per process and [Park]'s once per queue. *)
  let run_process t f =
    let on_delay =
      Some
        (fun (k : (unit, unit) continuation) ->
          schedule t (t.clock.(0) +. (Domain.DLS.get delay_arg).(0)) (fun () -> continue k ()))
    in
    match_with f ()
      {
        retc = (fun () -> ());
        exnc =
          (fun e ->
            let bt = Printexc.get_raw_backtrace () in
            Printexc.raise_with_backtrace (Stuck e) bt);
        effc =
          (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
            match eff with
            | Delay -> on_delay
            | Park q -> q.on_park
            | Suspend register ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let resumed = ref false in
                    let resume v =
                      if not !resumed then begin
                        resumed := true;
                        schedule t t.clock.(0) (fun () -> continue k v)
                      end
                    in
                    register resume)
            | _ -> None);
      }

  let spawn t f = schedule t t.clock.(0) (fun () -> run_process t f)

  let spawn_at t time f =
    if time < t.clock.(0) then invalid_arg "Sim.spawn_at: time is in the past";
    schedule t time (fun () -> run_process t f)

  let step t =
    if Ref_heap.is_empty t.events then invalid_arg "Sim.step: no scheduled events";
    t.clock.(0) <- Ref_heap.top_time t.events;
    t.executed <- t.executed + 1;
    (Ref_heap.pop_top t.events) ()

  let run t =
    while not (Ref_heap.is_empty t.events) do
      t.clock.(0) <- Ref_heap.top_time t.events;
      t.executed <- t.executed + 1;
      (Ref_heap.pop_top t.events) ()
    done

  let run_until t horizon =
    let events = t.events in
    while (not (Ref_heap.is_empty events)) && Ref_heap.top_time events <= horizon do
      t.clock.(0) <- Ref_heap.top_time events;
      t.executed <- t.executed + 1;
      (Ref_heap.pop_top events) ()
    done;
    if (not (Ref_heap.is_empty events)) && t.clock.(0) < horizon then t.clock.(0) <- horizon

  let delay d =
    if d < 0.0 then invalid_arg "Sim.delay: negative delay";
    (Domain.DLS.get delay_arg).(0) <- d;
    Effect.perform Delay

  let park q = Effect.perform q.park
  let suspend register = Effect.perform (Suspend register)
end

(* Random scripts run on both kernels through one interpreter. Times come
   from a small set, so events tie at one instant; the driver interleaves
   [run], [step] and [run_until] at horizons before, at and after pending
   instants. Every event and process step logs its tag and [now]. *)
module type KERNEL = sig
  type t
  type waitq

  val create : unit -> t
  val now : t -> float
  val events_executed : t -> int
  val spawn : t -> (unit -> unit) -> unit
  val spawn_at : t -> float -> (unit -> unit) -> unit
  val at : t -> float -> (unit -> unit) -> unit
  val after : t -> float -> (unit -> unit) -> unit
  val step : t -> unit
  val run : t -> unit
  val run_until : t -> float -> unit
  val waitq : t -> waitq
  val wake : waitq -> bool
  val delay : float -> unit
  val park : waitq -> unit
  val suspend : ((string -> unit) -> unit) -> string

  (* A one-shot wait: [register fire] sets it up before the process blocks,
     and may fire it at once. *)
  val oneshot : ((string -> unit) -> unit) -> string
end

(* Actions run by a callback or a process. *)
type act = Note | Wake of int | Fire

type op =
  | Act of act
  | Delay of float
  | Park of int
  | Spawn of op list
  | Call_at of float * act (* [at (now + dt)] *)
  | Call_after of float * act
  | Suspend of float (* resumed by a [Fire] or a timer *)
  | Once of float option * bool (* optional timer; fired by itself first *)

type top =
  | Start of float * op list (* [spawn_at (now + dt)], [spawn] if [dt = 0] *)
  | Top_call of float * act
  | Run
  | Step
  | Until of float (* [run_until (now + dt)] *)

module Interp (K : KERNEL) = struct
  let run script =
    let sim = K.create () in
    let log = ref [] in
    let note tag = log := (tag, K.now sim) :: !log in
    let qs = Array.init 2 (fun _ -> K.waitq sim) in
    let fires = Queue.create () in
    let fresh = ref 0 in
    let act tag = function
      | Note -> note tag
      | Wake i -> note (Printf.sprintf "%s wake%d %b" tag i (K.wake qs.(i)))
      | Fire -> (
          note (tag ^ " fire");
          match Queue.take_opt fires with Some f -> f tag | None -> ())
    in
    let rec proc name ops =
      List.iteri
        (fun i op ->
          let tag = Printf.sprintf "%s.%d" name i in
          (match op with
          | Act a -> act tag a
          | Delay d -> K.delay d
          | Park i -> K.park qs.(i)
          | Spawn ops ->
              incr fresh;
              let child = Printf.sprintf "%s/%d" name !fresh in
              K.spawn sim (fun () -> proc child ops)
          | Call_at (dt, a) -> K.at sim (K.now sim +. dt) (fun () -> act tag a)
          | Call_after (d, a) -> K.after sim d (fun () -> act tag a)
          | Suspend d ->
              let v =
                K.suspend (fun resume ->
                    Queue.add resume fires;
                    K.after sim d (fun () -> resume "timer"))
              in
              note (tag ^ " got " ^ v)
          | Once (timer, self) ->
              let v =
                K.oneshot (fun fire ->
                    Queue.add fire fires;
                    Option.iter (fun d -> K.after sim d (fun () -> fire "timer")) timer;
                    if self then fire "self")
              in
              note (tag ^ " got " ^ v));
          note (tag ^ " done"))
        ops
    in
    List.iteri
      (fun i top ->
        let name = Printf.sprintf "p%d" i in
        match top with
        | Start (0.0, ops) -> K.spawn sim (fun () -> proc name ops)
        | Start (dt, ops) -> K.spawn_at sim (K.now sim +. dt) (fun () -> proc name ops)
        | Top_call (dt, a) -> K.at sim (K.now sim +. dt) (fun () -> act name a)
        | Run -> K.run sim
        | Step -> ( try K.step sim with Invalid_argument _ -> note "step on empty")
        | Until dt -> K.run_until sim (K.now sim +. dt))
      script;
    K.run sim;
    (List.rev !log, K.events_executed sim, K.now sim)
end

module Lane_run = Interp (struct
  include Sim

  let oneshot register =
    let o = Sim.once () in
    register (fun v -> ignore (Sim.fire o v));
    Sim.await o
end)

module Ref_run = Interp (struct
  include Ref_sim

  let oneshot = Ref_sim.suspend
end)

let gen_script =
  let open QCheck2.Gen in
  let dt = oneofl [ 0.0; 0.0; 1.0; 2.5 ] in
  let act = oneof [ pure Note; map (fun i -> Wake i) (int_bound 1); pure Fire ] in
  let op =
    fix
      (fun self depth ->
        let base =
          [
            map (fun a -> Act a) act;
            map (fun d -> Delay d) dt;
            map (fun i -> Park i) (int_bound 1);
            map2 (fun d a -> Call_at (d, a)) dt act;
            map2 (fun d a -> Call_after (d, a)) dt act;
            map (fun d -> Suspend d) (oneofl [ 0.0; 1.0; 2.5; 50.0 ]);
            map2 (fun d s -> Once (d, s)) (opt dt) bool;
          ]
        in
        if depth = 0 then oneof base
        else
          let spawn = map (fun ops -> Spawn ops) (list_size (int_bound 4) (self (depth - 1))) in
          oneof (spawn :: base))
      2
  in
  let top =
    oneof
      [
        map2 (fun d ops -> Start (d, ops)) dt (list_size (int_bound 6) op);
        map2 (fun d a -> Top_call (d, a)) dt act;
        pure Run;
        pure Step;
        pure Step;
        map (fun d -> Until d) (oneofl [ -1.0; 0.0; 0.5; 1.0; 2.5; 10.0 ]);
      ]
  in
  list_size (int_range 1 25) top

let prop_lane_matches_reference =
  QCheck2.Test.make ~name:"lane kernel matches heap-only reference" ~count:1000 gen_script
    (fun script -> Lane_run.run script = Ref_run.run script)

(* Each kernel entry point refuses a NaN time: [nan < now] is false, so a
   plain past-time test let NaN into the heap, whose order it corrupts. *)
let rejects_nan name msg f =
  Alcotest.test_case name `Quick (fun () ->
      let sim = Sim.create () in
      Sim.at sim 1.0 ignore;
      Alcotest.check_raises name (Invalid_argument msg) (fun () -> f sim);
      Sim.run sim;
      checki "only the valid event ran" 1 (Sim.events_executed sim))

let nan_cases =
  [
    rejects_nan "at nan" "Sim.at: time is in the past" (fun sim -> Sim.at sim nan ignore);
    rejects_nan "after nan" "Sim.after: negative delay" (fun sim -> Sim.after sim nan ignore);
    rejects_nan "spawn_at nan" "Sim.spawn_at: time is in the past" (fun sim ->
        Sim.spawn_at sim nan ignore);
    Alcotest.test_case "delay nan" `Quick (fun () ->
        let sim = Sim.create () in
        Sim.spawn sim (fun () -> Sim.delay nan);
        match Sim.run sim with
        | exception Sim.Stuck (Invalid_argument m) ->
            Alcotest.(check string) "message" "Sim.delay: negative delay" m
        | () -> Alcotest.fail "expected Stuck");
  ]

let test_once () =
  let sim = Sim.create () in
  let log = ref [] in
  let o = Sim.once () in
  let await o =
    let v = Sim.await o in
    log := (v, Sim.now sim) :: !log
  in
  Sim.spawn sim (fun () -> await o);
  Sim.after sim 2.0 (fun () ->
      checkb "first fire wins" true (Sim.fire o "wake");
      checkb "fired" true (Sim.fired o));
  Sim.after sim 2.0 (fun () -> checkb "second fire loses" false (Sim.fire o "timer"));
  (* Fired by its own process before it awaits: it still yields first. *)
  Sim.spawn sim (fun () ->
      let o = Sim.once () in
      checkb "early fire wins" true (Sim.fire o "self");
      Sim.after sim 0.0 (fun () -> log := ("queued after the fire", Sim.now sim) :: !log);
      await o);
  Sim.run sim;
  check
    Alcotest.(list (pair string (float 1e-9)))
    "values and order"
    [ ("self", 0.0); ("queued after the fire", 0.0); ("wake", 2.0) ]
    (List.rev !log)

let test_step_empty () =
  let sim = Sim.create () in
  Alcotest.check_raises "step on empty" (Invalid_argument "Sim.step: no scheduled events")
    (fun () -> Sim.step sim)

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "large" `Quick test_heap_large;
          Alcotest.test_case "min_time" `Quick test_heap_min_time;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_matches_sorted_model;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bool extremes" `Quick test_rng_bool_extremes;
          Alcotest.test_case "pick/shuffle" `Quick test_rng_pick_shuffle;
          Alcotest.test_case "split" `Quick test_rng_split;
          QCheck_alcotest.to_alcotest prop_rng_int_in_range;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "delay sequencing" `Quick test_delay_sequencing;
          Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
          Alcotest.test_case "run_until" `Quick test_run_until;
          Alcotest.test_case "spawn_at" `Quick test_spawn_at;
          Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
          Alcotest.test_case "suspend resumes once" `Quick test_suspend_resume_once;
          Alcotest.test_case "suspend value" `Quick test_suspend_value;
          Alcotest.test_case "events executed" `Quick test_events_executed;
          Alcotest.test_case "step on empty" `Quick test_step_empty;
          Alcotest.test_case "one-shot wait" `Quick test_once;
          QCheck_alcotest.to_alcotest prop_lane_matches_reference;
        ]
        @ nan_cases );
      ( "condvar",
        [
          Alcotest.test_case "signal FIFO" `Quick test_condvar_signal_fifo;
          Alcotest.test_case "broadcast" `Quick test_condvar_broadcast;
          Alcotest.test_case "timeout" `Quick test_condvar_timeout;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "buffering" `Quick test_mailbox_buffering;
          Alcotest.test_case "recv timeout" `Quick test_mailbox_recv_timeout;
          Alcotest.test_case "timeout keeps messages" `Quick test_mailbox_timeout_does_not_lose_messages;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serialises" `Quick test_resource_serialises;
          Alcotest.test_case "capacity" `Quick test_resource_capacity;
          QCheck_alcotest.to_alcotest prop_resource_matches_reference;
          Alcotest.test_case "errors" `Quick test_resource_errors;
          Alcotest.test_case "use rejects a bad duration" `Quick test_resource_use_rejects;
        ] );
    ]
