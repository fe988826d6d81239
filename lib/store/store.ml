type item = int

type write_event =
  | Applied of { item : item; writer : int; payload : string option }
  | Installed of { item : item; value : Value.t }

type t = {
  site : int;
  table : Value.t Hash_index.t;
  mutable hook : write_event -> unit;
  mutable hooked : bool; (* skip building the event record when no hook *)
}

let create ~site items =
  let table = Hash_index.create ~capacity:64 () in
  List.iter (fun item -> Hash_index.set table item Value.initial) items;
  { site; table; hook = ignore; hooked = false }

let site t = t.site
let mem t item = Hash_index.mem t.table item

let not_placed t item =
  invalid_arg (Printf.sprintf "Store: item %d is not placed at site %d" item t.site)

(* [Hash_index.get] and the in-place [set] of a bound key allocate
   nothing: a read costs no words, an apply only the new value. *)
let read t item = match Hash_index.get t.table item with v -> v | exception Not_found -> not_placed t item

let apply t item ~writer ?payload () =
  Hash_index.set t.table item (Value.write ~writer ?payload (read t item));
  if t.hooked then t.hook (Applied { item; writer; payload })

let set t item v =
  if not (Hash_index.mem t.table item) then not_placed t item;
  Hash_index.set t.table item v;
  if t.hooked then t.hook (Installed { item; value = v })

let install t item v =
  Hash_index.set t.table item v;
  if t.hooked then t.hook (Installed { item; value = v })

let set_write_hook t f =
  t.hook <- f;
  t.hooked <- true

let contents t =
  Hash_index.fold (fun item v acc -> (item, v) :: acc) t.table [] |> List.sort compare

let restore t item v = Hash_index.set t.table item v

let items t = Hash_index.fold (fun item _ acc -> item :: acc) t.table [] |> List.sort compare
let size t = Hash_index.length t.table
let iter f t = Hash_index.iter f t.table

(* --- anti-entropy digests ------------------------------------------------- *)

let checksum t item = Value.checksum (read t item)

(* Item id folded into the per-copy checksum so that swapping the values of
   two items cannot cancel out in a combined digest. *)
let keyed_sum item v =
  let mask = (1 lsl 62) - 1 in
  (Value.checksum v + (item * 0x1e3779b97f4a7c15)) land mask

(* Commutative combine (masked sum), so the digest is independent of the
   order the items are listed in. *)
let digest_over t items =
  let mask = (1 lsl 62) - 1 in
  List.fold_left
    (fun acc item ->
      match Hash_index.find t.table item with
      | Some v -> (acc + keyed_sum item v) land mask
      | None -> acc)
    0 items
