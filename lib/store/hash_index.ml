(* Entries are mutable inline records: rebinding a key updates its entry in
   place instead of allocating a new one. *)
type 'a slot = Empty | Tombstone | Entry of { key : int; mutable value : 'a }

type 'a t = {
  mutable slots : 'a slot array;
  mutable live : int; (* Entry slots *)
  mutable used : int; (* Entry + Tombstone slots *)
}

let rec power_of_two n acc = if acc >= n then acc else power_of_two n (acc * 2)

let create ?(capacity = 16) () =
  let capacity = power_of_two (max 2 capacity) 2 in
  { slots = Array.make capacity Empty; live = 0; used = 0 }

let length t = t.live
let capacity t = Array.length t.slots

(* Fibonacci hashing spreads consecutive item ids well. *)
let bucket t key = key * 0x2545F4914F6CDD1D land max_int land (Array.length t.slots - 1)

let check_key key = if key < 0 then invalid_arg "Hash_index: negative key"

(* Slot index of [key], or -1 when absent: an int, so lookups allocate
   nothing. *)
let rec probe t key i =
  let n = Array.length t.slots in
  if i >= n then -1 (* the whole table was scanned: absent *)
  else
    let idx = (i + bucket t key) land (n - 1) in
    match t.slots.(idx) with
    | Empty -> -1
    | Entry e when e.key = key -> idx
    | Entry _ | Tombstone -> probe t key (i + 1)

let value_at t idx = match t.slots.(idx) with Entry e -> e.value | Empty | Tombstone -> assert false

let get t key =
  check_key key;
  let idx = probe t key 0 in
  if idx < 0 then raise Not_found else value_at t idx

let find t key =
  check_key key;
  let idx = probe t key 0 in
  if idx < 0 then None else Some (value_at t idx)

let mem t key =
  check_key key;
  probe t key 0 >= 0

(* Re-home an existing entry block into a fresh slot array. *)
let rec insert_raw slots key entry i =
  let n = Array.length slots in
  let idx = (i + (key * 0x2545F4914F6CDD1D land max_int land (n - 1))) land (n - 1) in
  match slots.(idx) with
  | Empty | Tombstone -> slots.(idx) <- entry
  | Entry _ -> insert_raw slots key entry (i + 1)

let resize t capacity =
  let old = t.slots in
  t.slots <- Array.make capacity Empty;
  t.used <- t.live;
  Array.iter
    (function Entry e as entry -> insert_raw t.slots e.key entry 0 | Empty | Tombstone -> ())
    old

(* Keep load (including the insert about to happen) under 2/3, so an Empty
   slot always exists and probes terminate early. *)
let maybe_grow t =
  let n = Array.length t.slots in
  if 3 * (t.used + 1) >= 2 * n then
    (* Double when genuinely full; same size when tombstones dominate. *)
    resize t (if 3 * (t.live + 1) >= n then 2 * n else n)

let set t key v =
  check_key key;
  let idx = probe t key 0 in
  if idx >= 0 then begin
    match t.slots.(idx) with Entry e -> e.value <- v | Empty | Tombstone -> assert false
  end
  else begin
    maybe_grow t;
    (* Reuse the first tombstone on the probe path if any ([reuse] < 0:
       none seen yet). *)
    let n = Array.length t.slots in
    let rec place i reuse =
      let idx = (i + bucket t key) land (n - 1) in
      match t.slots.(idx) with
      | Empty ->
          if reuse >= 0 then t.slots.(reuse) <- Entry { key; value = v }
          else begin
            t.slots.(idx) <- Entry { key; value = v };
            t.used <- t.used + 1
          end
      | Tombstone -> place (i + 1) (if reuse < 0 then idx else reuse)
      | Entry _ -> place (i + 1) reuse
    in
    place 0 (-1);
    t.live <- t.live + 1
  end

let remove t key =
  check_key key;
  let idx = probe t key 0 in
  if idx < 0 then false
  else begin
    t.slots.(idx) <- Tombstone;
    t.live <- t.live - 1;
    true
  end

let iter f t =
  Array.iter (function Entry e -> f e.key e.value | Empty | Tombstone -> ()) t.slots

let fold f t acc =
  Array.fold_left
    (fun acc -> function Entry e -> f e.key e.value acc | Empty | Tombstone -> acc)
    acc t.slots
