module Sim = Repdb_sim.Sim
module Txn = Repdb_txn.Txn
module Lock_mgr = Repdb_lock.Lock_mgr
module Placement = Repdb_workload.Placement
module Trace = Repdb_obs.Trace
module Event = Repdb_obs.Event
module Stats = Repdb_obs.Stats
module Span = Repdb_obs.Span
module Timeline = Repdb_obs.Timeline

type t = {
  sim : Sim.t;
  trace : Trace.t;
  stats : Stats.t;
  spans : Span.t;
  commit_ctr : Stats.counter;
  abort_ctr : Stats.counter;
  prop_hist : Stats.histogram;
  stale_ctr : Stats.counter option;
  mutable response_hist : Stats.histogram option;
      (* Registered at the first outcome, after the healer's histograms, so
         it stays the last column of the stats table. *)
  (* What Stats cannot hold: exact response samples for the percentiles,
     aborts per reason, the availability buckets and the staleness sum/max. *)
  mutable responses : float array; (* grown geometrically *)
  mutable n_responses : int;
  by_reason : int array; (* indexed like [Txn.all_abort_reasons] *)
  mutable bucket_commits : int array;
  mutable bucket_aborts : int array;
  mutable n_buckets : int;
  mutable stale_sum : float;
  mutable stale_max : float;
  mutable last_client_done : float;
  (* The sampled timeline and its replication-lag bookkeeping, maintained
     only when a timeline exists: per site, updates destined but not yet
     applied and the origin-commit time of the newest one applied. *)
  timeline : Timeline.t option;
  tl_commits_prev : int array; (* counter snapshot at the previous sample *)
  tl_aborts_prev : int array;
  lag_pending : int array;
  lag_applied : float array;
  lag_seen : bool array; (* per-destination scratch, cleared after each use *)
  mutable phi_fn : (unit -> float array) option;
}

let bucket_ms = 100.0

(* Registration order is the stats table's column order. *)
let create ?(sim = Sim.create ()) ?(trace = Trace.disabled) ?spans ?timeline
    ?(stale_reads = false) stats =
  let m = Stats.n_sites stats in
  let spans = match spans with Some s -> s | None -> Span.create ~stats ~trace () in
  let abort_ctr = Stats.counter stats "txn.abort" in
  let commit_ctr = Stats.counter stats "txn.commit" in
  let stale_ctr = if stale_reads then Some (Stats.counter stats "read.stale") else None in
  let prop_hist = Stats.histogram stats "prop.delay" in
  {
    sim;
    trace;
    stats;
    spans;
    commit_ctr;
    abort_ctr;
    prop_hist;
    stale_ctr;
    response_hist = None;
    responses = [||];
    n_responses = 0;
    by_reason = Array.make (List.length Txn.all_abort_reasons) 0;
    bucket_commits = [||];
    bucket_aborts = [||];
    n_buckets = 0;
    stale_sum = 0.0;
    stale_max = 0.0;
    last_client_done = 0.0;
    timeline;
    tl_commits_prev = Array.make m 0;
    tl_aborts_prev = Array.make m 0;
    lag_pending = Array.make m 0;
    lag_applied = Array.make m 0.0;
    lag_seen = Array.make m false;
    phi_fn = None;
  }

let trace t = t.trace
let stats t = t.stats
let timeline t = t.timeline
let emit t ev = Trace.record t.trace ev

(* --- transactions ----------------------------------------------------------- *)

(* Begin/commit/abort double as the span lifecycle hooks: the lazy protocols
   call each exactly once per client attempt. *)
let txn_begin t ~gid ~attempt ~site =
  Span.begin_ t.spans ~gid ~site ~now:(Sim.now t.sim);
  Span.link t.spans ~owner:attempt ~gid;
  if Trace.on t.trace then Trace.record t.trace (Event.Txn_begin { gid; site })

let txn_commit t ~gid ~site =
  Span.finish t.spans ~gid ~now:(Sim.now t.sim);
  if Trace.on t.trace then Trace.record t.trace (Event.Txn_commit { gid; site })

let txn_abort t ~gid ~site reason =
  Span.finish t.spans ~gid ~now:(Sim.now t.sim);
  if Trace.on t.trace then
    Trace.record t.trace (Event.Txn_abort { gid; site; reason = Txn.string_of_abort reason })

let span t ~owner phase dur = Span.add t.spans ~owner phase dur
let think t ~site dur = Span.think t.spans ~site dur

let deadline t ~gid ~site =
  if Trace.on t.trace then Trace.record t.trace (Event.Txn_deadline { gid; site })

let secondary_recv t ~gid ~site =
  if Trace.on t.trace then Trace.record t.trace (Event.Secondary_recv { gid; site })

let secondary_commit t ~gid ~site =
  if Trace.on t.trace then Trace.record t.trace (Event.Secondary_commit { gid; site })

let queue_depth t ~site ~queue ~depth =
  if Trace.on t.trace then Trace.record t.trace (Event.Queue_depth { site; queue; depth })

(* --- client outcomes -------------------------------------------------------- *)

let bucket_of t at =
  let b = max 0 (int_of_float (at /. bucket_ms)) in
  if b >= Array.length t.bucket_commits then begin
    let ncap = max 64 (max (b + 1) (2 * Array.length t.bucket_commits)) in
    let grow a =
      let g = Array.make ncap 0 in
      Array.blit a 0 g 0 (Array.length a);
      g
    in
    t.bucket_commits <- grow t.bucket_commits;
    t.bucket_aborts <- grow t.bucket_aborts
  end;
  if b + 1 > t.n_buckets then t.n_buckets <- b + 1;
  b

let reason_index reason =
  let rec go i = function
    | r :: rest -> if r = reason then i else go (i + 1) rest
    | [] -> invalid_arg "Metrics: unknown abort reason"
  in
  go 0 Txn.all_abort_reasons

let outcome t ~site ~response (o : Txn.outcome) =
  let b = bucket_of t (Sim.now t.sim) in
  match o with
  | Txn.Committed ->
      if t.n_responses = Array.length t.responses then begin
        let grown = Array.make (max 256 (2 * t.n_responses)) 0.0 in
        Array.blit t.responses 0 grown 0 t.n_responses;
        t.responses <- grown
      end;
      t.responses.(t.n_responses) <- response;
      t.n_responses <- t.n_responses + 1;
      t.bucket_commits.(b) <- t.bucket_commits.(b) + 1;
      Stats.incr t.commit_ctr ~site;
      let h =
        match t.response_hist with
        | Some h -> h
        | None ->
            let h = Stats.histogram t.stats "response" in
            t.response_hist <- Some h;
            h
      in
      Stats.observe h ~site response
  | Txn.Aborted reason ->
      let i = reason_index reason in
      t.by_reason.(i) <- t.by_reason.(i) + 1;
      t.bucket_aborts.(b) <- t.bucket_aborts.(b) + 1;
      Stats.incr t.abort_ctr ~site

let client_done t ~time =
  if time > t.last_client_done then t.last_client_done <- time

(* --- replication ------------------------------------------------------------- *)

let stale_read t ~site ~item ~staleness =
  t.stale_sum <- t.stale_sum +. staleness;
  if staleness > t.stale_max then t.stale_max <- staleness;
  (match t.stale_ctr with Some c -> Stats.incr c ~site | None -> ());
  if Trace.on t.trace then Trace.record t.trace (Event.Stale_read { site; item; staleness })

(* At origin commit, every site holding a replica of a written item will
   eventually apply the transaction, so it gains one pending update, counted
   once per (transaction, site) via the scratch array. *)
let destined t (pl : Placement.t) ~items =
  if t.timeline <> None then begin
    List.iter
      (fun item ->
        Array.iter
          (fun site ->
            if not t.lag_seen.(site) then begin
              t.lag_seen.(site) <- true;
              t.lag_pending.(site) <- t.lag_pending.(site) + 1
            end)
          pl.replicas.(item))
      items;
    Array.iteri (fun s seen -> if seen then t.lag_seen.(s) <- false) t.lag_seen
  end

let propagation t ~gid ~site ~delay =
  Stats.observe t.prop_hist ~site delay;
  if t.timeline <> None then begin
    if t.lag_pending.(site) > 0 then t.lag_pending.(site) <- t.lag_pending.(site) - 1;
    let origin = Sim.now t.sim -. delay in
    if origin > t.lag_applied.(site) then t.lag_applied.(site) <- origin
  end;
  if Trace.on t.trace then Trace.record t.trace (Event.Prop_apply { gid; site; delay })

(* --- the timeline ------------------------------------------------------------ *)

let set_phi t f = t.phi_fn <- Some f

(* Replication lag of [site] now: with updates pending, the age of the newest
   applied origin commit (growing in real time while the backlog persists,
   e.g. across a partition); 0 once caught up. *)
let lag_of t site =
  if t.lag_pending.(site) > 0 then Float.max 0.0 (Sim.now t.sim -. t.lag_applied.(site)) else 0.0

let sample t ~active ~inflight ~locks =
  match t.timeline with
  | None -> ()
  | Some tl ->
      let m = Stats.n_sites t.stats in
      let delta ctr prev =
        Array.init m (fun s ->
            let v = Stats.counter_value ctr ~site:s in
            let d = v - prev.(s) in
            prev.(s) <- v;
            d)
      in
      let r_commits = delta t.commit_ctr t.tl_commits_prev in
      let r_aborts = delta t.abort_ctr t.tl_aborts_prev in
      Timeline.push tl
        {
          Timeline.r_time = Sim.now t.sim;
          r_active = active;
          r_inflight = inflight;
          r_commits;
          r_aborts;
          r_lag = Array.init m (fun s -> lag_of t s);
          r_pending = Array.copy t.lag_pending;
          r_locks = Array.map Lock_mgr.locks_held locks;
          r_waiters = Array.map Lock_mgr.lock_waiters locks;
          r_phi =
            (if not (Timeline.has_phi tl) then [||]
             else match t.phi_fn with Some f -> f () | None -> Array.make m 0.0);
        }

(* --- summary ------------------------------------------------------------------ *)

type site_summary = { site : int; s_commits : int; s_aborts : int; s_avg_response : float }

type summary = {
  commits : int;
  aborts : int;
  abort_rate : float;
  aborts_by_reason : (Txn.abort_reason * int) list;
  duration : float;
  throughput : float;
  throughput_per_site : float;
  avg_response : float;
  p50_response : float;
  p95_response : float;
  p99_response : float;
  avg_propagation : float;
  n_propagations : int;
  messages : int;
  per_site : site_summary list;
  timeline : (float * int * int) list;
  unavail_ms : float;
  unavail_windows : int;
  stale_reads : int;
  max_staleness : float;
  avg_staleness : float;
}

(* Buckets that saw aborts but no commits are "unavailable"; consecutive ones
   merge into windows. Leading/trailing empty buckets don't count — silence
   is idleness, not unavailability. *)
let unavailability t =
  let ms = ref 0.0 and windows = ref 0 and in_window = ref false in
  for b = 0 to t.n_buckets - 1 do
    if t.bucket_aborts.(b) > 0 && t.bucket_commits.(b) = 0 then begin
      ms := !ms +. bucket_ms;
      if not !in_window then incr windows;
      in_window := true
    end
    else if t.bucket_commits.(b) > 0 then in_window := false
  done;
  (!ms, !windows)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(Stats.rank ~n q - 1)

let ratio sum n = if n = 0 then 0.0 else sum /. float_of_int n

let summary (t : t) =
  let n_sites = Stats.n_sites t.stats in
  let commits = Stats.counter_total t.commit_ctr and aborts = Stats.counter_total t.abort_ctr in
  let response_sum site =
    match t.response_hist with Some h -> Stats.histogram_sum h ~site | None -> 0.0
  in
  let n_propagations = Stats.histogram_count t.prop_hist ~site:(-1) in
  let stale_reads = match t.stale_ctr with Some c -> Stats.counter_total c | None -> 0 in
  let duration = t.last_client_done in
  let seconds = duration /. 1000.0 in
  let throughput = if seconds > 0.0 then float_of_int commits /. seconds else 0.0 in
  let sorted = Array.sub t.responses 0 t.n_responses in
  Array.sort compare sorted;
  let unavail_ms, unavail_windows = unavailability t in
  {
    commits;
    aborts;
    abort_rate = ratio (100.0 *. float_of_int aborts) (commits + aborts);
    aborts_by_reason =
      List.mapi (fun i r -> (r, t.by_reason.(i))) Txn.all_abort_reasons
      |> List.filter (fun (_, n) -> n > 0);
    duration;
    throughput;
    throughput_per_site = throughput /. float_of_int n_sites;
    avg_response = ratio (response_sum (-1)) commits;
    p50_response = percentile sorted 0.5;
    p95_response = percentile sorted 0.95;
    p99_response = percentile sorted 0.99;
    avg_propagation = ratio (Stats.histogram_sum t.prop_hist ~site:(-1)) n_propagations;
    n_propagations;
    messages = Stats.total t.stats "msg.sent";
    timeline =
      List.init t.n_buckets (fun b ->
          (float_of_int b *. bucket_ms, t.bucket_commits.(b), t.bucket_aborts.(b)));
    unavail_ms;
    unavail_windows;
    stale_reads;
    max_staleness = t.stale_max;
    avg_staleness = ratio t.stale_sum stale_reads;
    per_site =
      List.init n_sites (fun site ->
          let c = Stats.counter_value t.commit_ctr ~site in
          {
            site;
            s_commits = c;
            s_aborts = Stats.counter_value t.abort_ctr ~site;
            s_avg_response = ratio (response_sum site) c;
          });
  }

let pp_summary ppf s =
  Fmt.pf ppf
    "@[<v>abort reasons: %a@ commits=%d aborts=%d (%.2f%%) duration=%.0fms@ \
     throughput=%.2f txn/s (%.2f per site)@ \
     response avg=%.1fms p50=%.1fms p95=%.1fms p99=%.1fms@ avg propagation=%.1fms (%d) messages=%d"
    (Fmt.list ~sep:Fmt.sp (fun ppf (r, n) -> Fmt.pf ppf "%s=%d" (Txn.string_of_abort r) n))
    s.aborts_by_reason s.commits s.aborts s.abort_rate s.duration s.throughput
    s.throughput_per_site s.avg_response s.p50_response s.p95_response s.p99_response
    s.avg_propagation s.n_propagations s.messages;
  if s.unavail_windows > 0 then
    Fmt.pf ppf "@ unavailability: %.0fms over %d window%s" s.unavail_ms s.unavail_windows
      (if s.unavail_windows = 1 then "" else "s");
  if s.stale_reads > 0 then
    Fmt.pf ppf "@ stale reads=%d staleness avg=%.1fms max=%.1fms" s.stale_reads s.avg_staleness
      s.max_staleness;
  Fmt.pf ppf "@]"

let pp_per_site ppf s =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf r ->
         Fmt.pf ppf "site %-3d commits=%-6d aborts=%-6d avg response=%.1fms" r.site r.s_commits
           r.s_aborts r.s_avg_response))
    s.per_site