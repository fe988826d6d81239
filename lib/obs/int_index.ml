(* Keys and values sit in two flat int arrays, [empty] marking a free key
   cell. The capacity is a power of two kept at most two-thirds full. *)
type t = { mutable keys : int array; mutable vals : int array; mutable len : int }

let empty = min_int
(* The least capacity, at least 8, that takes [n] bindings without growing. *)
let create n =
  let rec cap c = if 3 * n > 2 * c then cap (2 * c) else c in
  let c = cap 8 in
  { keys = Array.make c empty; vals = Array.make c 0; len = 0 }
let length t = t.len

(* Multiplicative hashing keeping the low bits: a key's home depends only on
   the key modulo the capacity, so consecutive keys get distinct homes. *)
let home keys key = key * 0x2545F4914F6CDD1D land max_int land (Array.length keys - 1)

(* The slot holding [key], or the empty slot ending its probe run. *)
let rec probe keys key i =
  let k = keys.(i) in
  if k = key || k = empty then i else probe keys key ((i + 1) land (Array.length keys - 1))

let find t key =
  let i = probe t.keys key (home t.keys key) in
  if t.keys.(i) = key then t.vals.(i) else -1

let rec set t key v =
  let keys = t.keys in
  if 3 * (t.len + 1) > 2 * Array.length keys then begin
    let vals = t.vals in
    t.keys <- Array.make (2 * Array.length keys) empty;
    t.vals <- Array.make (2 * Array.length keys) 0;
    t.len <- 0;
    Array.iteri (fun i k -> if k <> empty then set t k vals.(i)) keys;
    set t key v
  end
  else begin
    let i = probe keys key (home keys key) in
    if keys.(i) = empty then t.len <- t.len + 1;
    keys.(i) <- key;
    t.vals.(i) <- v
  end

(* Close the hole at [hole] by moving back each later entry of the run
   whose home slot does not lie cyclically in (hole, j]. *)
let rec shift t hole j =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let j = (j + 1) land mask in
  let k = keys.(j) in
  if k = empty then keys.(hole) <- empty
  else if (j - home keys k) land mask >= (j - hole) land mask then begin
    keys.(hole) <- k;
    t.vals.(hole) <- t.vals.(j);
    shift t j j
  end
  else shift t hole j

let remove t key =
  let i = probe t.keys key (home t.keys key) in
  if t.keys.(i) = key then begin
    t.len <- t.len - 1;
    shift t i i
  end

let iter f t = Array.iteri (fun i k -> if k <> empty then f k t.vals.(i)) t.keys
