(* Worker domains live for the pool's lifetime and synchronise with [map]
   through one mutex + two condition variables. Each [map] publishes a job
   (a closure that drains the shared chunk index) under the mutex, bumps an
   epoch so workers can tell a new round from a spurious wakeup, and then
   participates itself; it returns only once every worker has finished the
   round, so successive [map]s never overlap on the same pool. *)

type t = {
  domains : int;  (* total parallelism, counting the caller *)
  mutable workers : unit Domain.t array;  (* domains - 1 of them *)
  m : Mutex.t;
  work_ready : Condition.t;
  round_done : Condition.t;
  mutable job : (unit -> unit) option;
  mutable epoch : int;  (* bumped once per map round *)
  mutable active : int;  (* workers still inside the current round *)
  mutable stopped : bool;
  busy : bool Atomic.t;  (* guards against nested / concurrent map *)
}

let domains t = t.domains
let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

let worker pool () =
  let last_epoch = ref 0 in
  let rec loop () =
    Mutex.lock pool.m;
    while (not pool.stopped) && pool.epoch = !last_epoch do
      Condition.wait pool.work_ready pool.m
    done;
    if pool.stopped then Mutex.unlock pool.m
    else begin
      last_epoch := pool.epoch;
      let job = Option.get pool.job in
      Mutex.unlock pool.m;
      job ();
      Mutex.lock pool.m;
      pool.active <- pool.active - 1;
      if pool.active = 0 then Condition.broadcast pool.round_done;
      Mutex.unlock pool.m;
      loop ()
    end
  in
  loop ()

let create ~domains () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let pool =
    {
      domains;
      workers = [||];
      m = Mutex.create ();
      work_ready = Condition.create ();
      round_done = Condition.create ();
      job = None;
      epoch = 0;
      active = 0;
      stopped = false;
      busy = Atomic.make false;
    }
  in
  pool.workers <- Array.init (domains - 1) (fun _ -> Domain.spawn (worker pool));
  pool

let shutdown t =
  Mutex.lock t.m;
  let was_stopped = t.stopped in
  t.stopped <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.m;
  if not was_stopped then Array.iter Domain.join t.workers

let with_pool ~domains f =
  let pool = create ~domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Tasks are whole simulation runs (seconds each), so per-claim overhead is
   negligible; what matters is skew. Coarse chunks amortise claims on big
   fan-outs while leaving at least a few claims per domain for stealing to
   even out slow tasks. *)
let adaptive_chunk ~domains ~n = max 1 (n / (domains * 4))

let map t xs ~f =
  let n = Array.length xs in
  if t.stopped then invalid_arg "Pool.map: pool is shut down";
  if n = 0 then [||]
  else if t.domains = 1 || n = 1 then Array.map f xs
  else if not (Atomic.compare_and_set t.busy false true) then
    invalid_arg "Pool.map: nested or concurrent map on the same pool"
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let chunk = adaptive_chunk ~domains:t.domains ~n in
    let error = Atomic.make None in
    let body () =
      let continue = ref true in
      while !continue do
        let start = Atomic.fetch_and_add next chunk in
        if start >= n || Atomic.get error <> None then continue := false
        else begin
          let stop = min n (start + chunk) in
          try
            for i = start to stop - 1 do
              results.(i) <- Some (f xs.(i))
            done
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set error None (Some (e, bt)))
        end
      done
    in
    let finish () =
      (* Wait until every worker has left the round, so the next [map] (or
         [shutdown]) finds them all back in their wait loop. *)
      Mutex.lock t.m;
      while t.active > 0 do
        Condition.wait t.round_done t.m
      done;
      t.job <- None;
      Mutex.unlock t.m;
      Atomic.set t.busy false
    in
    Mutex.lock t.m;
    t.job <- Some body;
    t.active <- Array.length t.workers;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.m;
    (match body () with
    | () -> finish ()
    | exception e ->
        (* [body] never raises, but keep the pool usable if that changes. *)
        finish ();
        raise e);
    match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.map (function Some v -> v | None -> assert false) results
  end
