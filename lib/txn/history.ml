type kind = R | W

type access = { gid : int; attempt : int; kind : kind; version : int option }

(* A growable array: the log's accesses are [accs.(0 .. len-1)]. *)
type log = { mutable accs : access array; mutable len : int }

(* Keys are log keys and attempt ids, which come from counters: the
   identity spreads them over the buckets and costs no hashing call. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Fun.id
end)

type t = {
  on : bool;
  n_sites : int;
  logs : log Tbl.t; (* item * n_sites + site -> log *)
  aborted : unit Tbl.t;
  mutable count : int;
}

let create ?(enabled = true) ~n_sites () =
  { on = enabled; n_sites; logs = Tbl.create 1024; aborted = Tbl.create 64; count = 0 }

let enabled t = t.on

let key t ~site ~item = (item * t.n_sites) + site

let record t ~site ~item ~gid ~attempt ?version kind =
  if t.on then begin
    if site < 0 || site >= t.n_sites || item < 0 then invalid_arg "History.record: out of range";
    let a = { gid; attempt; kind; version } in
    let k = key t ~site ~item in
    (match Tbl.find_opt t.logs k with
    | None -> Tbl.add t.logs k { accs = Array.make 4 a; len = 1 }
    | Some log ->
        if log.len = Array.length log.accs then begin
          let accs = Array.make (2 * log.len) a in
          Array.blit log.accs 0 accs 0 log.len;
          log.accs <- accs
        end;
        log.accs.(log.len) <- a;
        log.len <- log.len + 1);
    t.count <- t.count + 1
  end

let discard_attempt t ~attempt = if t.on then Tbl.replace t.aborted attempt ()

(* [log]'s committed accesses, in execution order, as a fresh array. *)
let committed t log =
  if Tbl.length t.aborted = 0 then Array.sub log.accs 0 log.len
  else
    let keep = Array.make log.len log.accs.(0) and n = ref 0 in
    for i = 0 to log.len - 1 do
      let a = log.accs.(i) in
      if not (Tbl.mem t.aborted a.attempt) then begin
        keep.(!n) <- a;
        incr n
      end
    done;
    if !n = log.len then keep else Array.sub keep 0 !n

let committed_logs t =
  Tbl.fold
    (fun _ log acc ->
      let accs = committed t log in
      if Array.length accs = 0 then acc else accs :: acc)
    t.logs []

let committed_log t ~site ~item =
  match Tbl.find_opt t.logs (key t ~site ~item) with
  | None -> []
  | Some log -> Array.to_list (committed t log)

let touched t =
  Tbl.fold (fun k _ acc -> (k mod t.n_sites, k / t.n_sites) :: acc) t.logs [] |> List.sort compare

let committed_gids t =
  let gids = Hashtbl.create 64 in
  List.iter (Array.iter (fun a -> Hashtbl.replace gids a.gid ())) (committed_logs t);
  Hashtbl.fold (fun gid () acc -> gid :: acc) gids [] |> List.sort compare

let size t = t.count
