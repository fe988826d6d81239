module Rng = Repdb_sim.Rng
module Txn = Repdb_txn.Txn

type t = {
  params : Params.t;
  mutable readable : int array array;
  mutable writable : int array array;
  (* Per-site cumulative Zipf weight tables over each pool, built lazily on
     first use (only when [zipf_theta > 0]) and invalidated by [refresh]:
     the pools change with the placement, so rank -> item does too. *)
  mutable zipf_read : float array option array;
  mutable zipf_write : float array option array;
  (* Buffers reused by every [gen_with] call, so a transaction allocates
     little beyond its own op list. [chosen.(item) = epoch] marks an item
     drawn earlier in the current transaction (each call bumps [epoch]);
     [keys] holds the drawn ops as [item * 2 + is_write] for the in-place
     sort. *)
  chosen : int array;
  mutable epoch : int;
  keys : int array;
}

(* The pools are the placement's own precomputed per-site slices (read-only
   by contract), so refreshing after a reconfiguration copies pointers, not
   item lists. *)
let pools (params : Params.t) placement =
  let readable = Array.init params.n_sites (fun site -> Placement.placed_at placement site) in
  let writable = Array.init params.n_sites (fun site -> Placement.primaries_at placement site) in
  (readable, writable)

let create _rng (params : Params.t) placement =
  let readable, writable = pools params placement in
  {
    params;
    readable;
    writable;
    zipf_read = Array.make params.n_sites None;
    zipf_write = Array.make params.n_sites None;
    chosen = Array.make params.n_items 0;
    epoch = 0;
    keys = Array.make params.ops_per_txn 0;
  }

let refresh t placement =
  let readable, writable = pools t.params placement in
  t.readable <- readable;
  t.writable <- writable;
  Array.fill t.zipf_read 0 (Array.length t.zipf_read) None;
  Array.fill t.zipf_write 0 (Array.length t.zipf_write) None

(* Cumulative weights 1/(rank+1)^theta over a pool; item ids are sorted, so
   rank 0 — the smallest id in the pool — is the hottest key, stable across
   protocols and runs. *)
let zipf_table theta pool =
  let n = Array.length pool in
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for rank = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (rank + 1)) theta);
    cum.(rank) <- !acc
  done;
  cum

let zipf_pick rng cum pool =
  let n = Array.length cum in
  let u = Rng.float rng *. cum.(n - 1) in
  (* First rank whose cumulative weight covers the draw. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) <= u then lo := mid + 1 else hi := mid
  done;
  pool.(!lo)

let hot_item_fraction = 0.2

(* Hotspot skew: with probability [hot_access_prob], draw from the first
   [hot_item_fraction] of the pool (item ids are sorted, so the hot set is
   stable across protocols and runs). [cache] is the pool's Zipf table
   cache, [t.zipf_read] or [t.zipf_write]. The pickers are top-level
   functions, not closures built per transaction. *)
let pick_skewed t rng cache site pool =
  let p = t.params in
  if p.zipf_theta > 0.0 then begin
    let cum =
      match cache.(site) with
      | Some cum -> cum
      | None ->
          let cum = zipf_table p.zipf_theta pool in
          cache.(site) <- Some cum;
          cum
    in
    zipf_pick rng cum pool
  end
  else if p.hot_access_prob > 0.0 && Rng.bool rng p.hot_access_prob then begin
    let n = Array.length pool in
    pool.(Rng.int rng (max 1 (int_of_float (ceil (hot_item_fraction *. float_of_int n)))))
  end
  else Rng.pick rng pool

(* Transactions touch distinct items: rereading — and in particular writing
   an item already read, which would force a shared-to-exclusive upgrade and
   make every concurrent pair of such transactions deadlock — is resampled
   away (best effort when the pool is small: after 20 retries the duplicate
   is kept). *)
let rec pick_distinct t rng cache site pool tries =
  let item = pick_skewed t rng cache site pool in
  if t.chosen.(item) <> t.epoch || tries >= 20 then begin
    t.chosen.(item) <- t.epoch;
    item
  end
  else pick_distinct t rng cache site pool (tries + 1)

(* In-place ascending sort of [keys.(0 .. n-1)]: insertion sort for the
   usual short transaction, heapsort above the cut-off so long ones stay
   O(n log n). Neither allocates. *)
let insertion_sort keys n =
  for i = 1 to n - 1 do
    let k = keys.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && keys.(!j) > k do
      keys.(!j + 1) <- keys.(!j);
      decr j
    done;
    keys.(!j + 1) <- k
  done

let rec sift_down keys root n =
  let child = (2 * root) + 1 in
  if child < n then begin
    let child = if child + 1 < n && keys.(child + 1) > keys.(child) then child + 1 else child in
    if keys.(child) > keys.(root) then begin
      let tmp = keys.(root) in
      keys.(root) <- keys.(child);
      keys.(child) <- tmp;
      sift_down keys child n
    end
  end

let heap_sort keys n =
  for root = (n / 2) - 1 downto 0 do
    sift_down keys root n
  done;
  for last = n - 1 downto 1 do
    let tmp = keys.(0) in
    keys.(0) <- keys.(last);
    keys.(last) <- tmp;
    sift_down keys 0 last
  done

let sort_keys keys n = if n <= 16 then insertion_sort keys n else heap_sort keys n

(* The op list of sorted keys [keys.(0 .. i)], built back to front. A key's
   low bit is 1 for a write, so a Write of an item sorts after any Read of
   it: keeping the last key of each run of equal items is exactly "a Write
   absorbs a Read of the same item". *)
let rec ops_of_keys keys i acc =
  if i < 0 then acc
  else begin
    let k = keys.(i) in
    let item = k lsr 1 in
    let op = if k land 1 = 1 then Txn.Write item else Txn.Read item in
    ops_of_keys keys (skip_item keys item (i - 1)) (op :: acc)
  end

and skip_item keys item i = if i >= 0 && keys.(i) lsr 1 = item then skip_item keys item (i - 1) else i

let gen_with t rng ~site =
  let p = t.params in
  let readable = t.readable.(site) and writable = t.writable.(site) in
  if Array.length readable = 0 then { Txn.origin = site; ops = [] }
  else begin
    let read_only = Rng.bool rng p.read_txn_prob in
    t.epoch <- t.epoch + 1;
    let n = p.ops_per_txn in
    for i = 0 to n - 1 do
      let is_read = read_only || Array.length writable = 0 || Rng.bool rng p.read_op_prob in
      t.keys.(i) <-
        (if is_read then 2 * pick_distinct t rng t.zipf_read site readable 0
         else (2 * pick_distinct t rng t.zipf_write site writable 0) + 1)
    done;
    (* Canonical item order: locks are then acquired ascending, which rules
       out local deadlocks between transactions at the same site (distributed
       deadlocks — PSL remote reads, BackEdge waits — remain possible, as in
       the paper). [pick_distinct] is best effort, so the sorted keys may
       still name an item twice; a Read + Write of one item would force
       exactly the shared-to-exclusive upgrade the distinct-items rule exists
       to prevent, so duplicates collapse, a Write absorbing a Read. *)
    sort_keys t.keys n;
    { Txn.origin = site; ops = ops_of_keys t.keys (n - 1) [] }
  end

let readable t site = t.readable.(site)
let writable t site = t.writable.(site)
