type row = {
  r_time : float;
  r_active : int;
  r_inflight : int;
  r_commits : int array;
  r_aborts : int array;
  r_lag : float array;
  r_pending : int array;
  r_locks : int array;
  r_waiters : int array;
  r_phi : float array;
}

type t = {
  n_sites : int;
  interval : float;
  phi : bool;
  mutable meta : (string * string) list;
  mutable rev_rows : row list;
  mutable len : int;
}

let create ~n_sites ~interval ?(phi = false) () =
  if n_sites < 1 then invalid_arg "Timeline.create: need at least one site";
  if interval <= 0.0 || not (Float.is_finite interval) then
    invalid_arg "Timeline.create: interval must be positive and finite";
  { n_sites; interval; phi; meta = []; rev_rows = []; len = 0 }

let interval t = t.interval
let has_phi t = t.phi
let length t = t.len
let meta t = t.meta
let set_meta t meta = t.meta <- meta

let push t row =
  let check name len =
    if len <> t.n_sites then
      invalid_arg (Printf.sprintf "Timeline.push: %s has %d entries for %d sites" name len t.n_sites)
  in
  check "commits" (Array.length row.r_commits);
  check "aborts" (Array.length row.r_aborts);
  check "lag" (Array.length row.r_lag);
  check "pending" (Array.length row.r_pending);
  check "locks" (Array.length row.r_locks);
  check "waiters" (Array.length row.r_waiters);
  (if t.phi then check "phi" (Array.length row.r_phi)
   else if Array.length row.r_phi <> 0 then
     invalid_arg "Timeline.push: phi column disabled but r_phi is non-empty");
  t.rev_rows <- row :: t.rev_rows;
  t.len <- t.len + 1

let rows t = List.rev t.rev_rows

(* Per-site column groups; `name.N` matches the Stats convention and lets a
   parser recover the site count from the header alone. *)
let header t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "t_ms,active_txns,msgs_inflight";
  let group name =
    for s = 0 to t.n_sites - 1 do
      Buffer.add_string buf (Printf.sprintf ",%s.%d" name s)
    done
  in
  group "commits";
  group "aborts";
  group "lag_ms";
  group "pending";
  group "locks_held";
  group "lock_waiters";
  if t.phi then group "phi";
  Buffer.contents buf

let meta_line t =
  let fields =
    [ ("sites", string_of_int t.n_sites); ("interval_ms", Printf.sprintf "%g" t.interval) ]
    @ t.meta
  in
  "# repdb-timeline v1 "
  ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) fields)

let to_csv t write =
  write (meta_line t);
  write "\n";
  write (header t);
  write "\n";
  List.iter
    (fun r ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf (Printf.sprintf "%.3f,%d,%d" r.r_time r.r_active r.r_inflight);
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%d" v)) r.r_commits;
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%d" v)) r.r_aborts;
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%.3f" v)) r.r_lag;
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%d" v)) r.r_pending;
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%d" v)) r.r_locks;
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%d" v)) r.r_waiters;
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%.3f" v)) r.r_phi;
      Buffer.add_char buf '\n';
      write (Buffer.contents buf))
    (rows t)

let to_csv_string t =
  let buf = Buffer.create 4096 in
  to_csv t (Buffer.add_string buf);
  Buffer.contents buf

let to_json_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"sites\":%d,\"interval_ms\":%g" t.n_sites t.interval);
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf ",\"%s\":\"%s\"" (Export.escape k) (Export.escape v)))
    t.meta;
  Buffer.add_string buf ",\"rows\":[";
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  let floats a =
    String.concat "," (List.map (Printf.sprintf "%.3f") (Array.to_list a))
  in
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      let phi_field =
        if t.phi then Printf.sprintf ",\"phi\":[%s]" (floats r.r_phi) else ""
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"t_ms\":%.3f,\"active\":%d,\"inflight\":%d,\"commits\":[%s],\"aborts\":[%s],\"lag_ms\":[%s],\"pending\":[%s],\"locks_held\":[%s],\"lock_waiters\":[%s]%s}"
           r.r_time r.r_active r.r_inflight (ints r.r_commits) (ints r.r_aborts)
           (floats r.r_lag) (ints r.r_pending) (ints r.r_locks) (ints r.r_waiters)
           phi_field))
    (rows t);
  Buffer.add_string buf "]}";
  Buffer.contents buf
