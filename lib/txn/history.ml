module Int_index = Repdb_obs.Int_index

type kind = R | W

type access = { gid : int; attempt : int; kind : kind; version : int option }

(* Access [i] is [acc.(5i .. 5i+4)]: its log's dense id, gid, attempt, kv
   (see [grouped]) and the log's previous access or -1; [last.(l)] is log
   [l]'s last access. Only ints: no pointer from an old block to a young one. *)
type t = {
  on : bool;
  n_sites : int;
  ids : Int_index.t; (* log key (item * n_sites + site) -> dense log id *)
  aborted : Int_index.t; (* discarded attempt -> 0 *)
  mutable acc : int array;
  mutable count : int;
  mutable last : int array;
}

let create ?(enabled = true) ~n_sites () =
  let cap = if enabled then 1024 else 0 in
  { on = enabled; n_sites; ids = Int_index.create cap; aborted = Int_index.create (cap / 16);
    acc = Array.make (5 * cap) 0; count = 0; last = Array.make cap 0 }

let enabled t = t.on
let key t ~site ~item = (item * t.n_sites) + site

let append t ~site ~item ~gid ~attempt kv =
  if t.on then begin
    if site < 0 || site >= t.n_sites || item < 0 then invalid_arg "History.record: out of range";
    let k = key t ~site ~item in
    let l =
      match Int_index.find t.ids k with
      | -1 ->
          let l = Int_index.length t.ids in
          Int_index.set t.ids k l;
          if l = Array.length t.last then t.last <- Array.append t.last t.last (* doubled *);
          t.last.(l) <- -1;
          l
      | l -> l
    in
    let i = t.count and b = 5 * t.count in
    if b + 5 > Array.length t.acc then t.acc <- Array.append t.acc t.acc;
    let a = t.acc in
    a.(b) <- l;
    a.(b + 1) <- gid;
    a.(b + 2) <- attempt;
    a.(b + 3) <- kv;
    a.(b + 4) <- t.last.(l);
    t.last.(l) <- i;
    t.count <- i + 1
  end

let record t ~site ~item ~gid ~attempt kind = append t ~site ~item ~gid ~attempt (Bool.to_int (kind = W))

let record_versioned t ~site ~item ~gid ~attempt ~version kind =
  append t ~site ~item ~gid ~attempt ((version lsl 2) lor 2 lor Bool.to_int (kind = W))

let discard_attempt t ~attempt = if t.on then Int_index.set t.aborted attempt 0

(* [live] for a pass over every access: flat marks over the range of the
   discarded attempts, or the index itself when that range is sparse. *)
let liveness t =
  let lo = ref max_int and hi = ref min_int in
  Int_index.iter (fun a _ -> lo := Int.min !lo a; hi := Int.max !hi a) t.aborted;
  let lo = !lo and hi = !hi in
  if Int_index.length t.aborted = 0 then fun _ -> true
  else if hi - lo >= 0 && hi - lo < (4 * t.count) + 4096 then begin
    let marks = Bytes.make (hi - lo + 1) '\000' in
    Int_index.iter (fun a _ -> Bytes.set marks (a - lo) '\001') t.aborted;
    fun a -> a < lo || a > hi || Bytes.get marks (a - lo) = '\000'
  end
  else fun a -> Int_index.find t.aborted a < 0

type grouped = { start : int array; gids : int array; kvs : int array }

(* A stable counting sort of the committed accesses by log: count each
   log's survivors, turn the counts into end offsets, then place the
   survivors last to first, each one below its log's end. *)
let grouped t =
  let a = t.acc and n_logs = Int_index.length t.ids and live = liveness t in
  let start = Array.make (n_logs + 1) 0 in
  for i = 0 to t.count - 1 do
    if live a.((5 * i) + 2) then start.(a.(5 * i)) <- start.(a.(5 * i)) + 1
  done;
  for l = 1 to n_logs do
    start.(l) <- start.(l) + start.(l - 1)
  done;
  let gids = Array.make start.(n_logs) 0 and kvs = Array.make start.(n_logs) 0 in
  for i = t.count - 1 downto 0 do
    let b = 5 * i in
    if live a.(b + 2) then begin
      let p = start.(a.(b)) - 1 in
      start.(a.(b)) <- p;
      gids.(p) <- a.(b + 1);
      kvs.(p) <- a.(b + 3)
    end
  done;
  { start; gids; kvs }

(* Walk the log's chain back from its last access, consing, so the list
   comes out first to last. *)
let committed_log t ~site ~item =
  let a = t.acc in
  let rec walk i acc =
    let b = 5 * i in
    if i < 0 then acc
    else if Int_index.find t.aborted a.(b + 2) >= 0 then walk a.(b + 4) acc
    else
      let kind = if a.(b + 3) land 1 = 1 then W else R in
      let version = if a.(b + 3) land 2 = 0 then None else Some (a.(b + 3) asr 2) in
      walk a.(b + 4) ({ gid = a.(b + 1); attempt = a.(b + 2); kind; version } :: acc)
  in
  match Int_index.find t.ids (key t ~site ~item) with -1 -> [] | l -> walk t.last.(l) []

let touched t =
  let keys = ref [] in
  Int_index.iter (fun k _ -> keys := (k mod t.n_sites, k / t.n_sites) :: !keys) t.ids;
  List.sort compare !keys

let committed_gids t = List.sort_uniq Int.compare (Array.to_list (grouped t).gids)
let size t = t.count
