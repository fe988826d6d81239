module Int_index = Repdb_obs.Int_index

type item = int

type write_event =
  | Applied of { item : item; writer : int; payload : string option }
  | Installed of { item : item; value : Value.t }

(* Copies sit in a slot array; the index maps an item to its slot. A store
   never drops a copy, so slots [0 .. length index - 1] are all in use. *)
type t = {
  site : int;
  index : Int_index.t;
  mutable values : Value.t array;
  mutable hook : write_event -> unit;
  mutable hooked : bool; (* skip building the event record when no hook *)
}

(* The slot of [item], or the next free one when no copy is placed; free
   slots hold [Value.initial]. *)
let add t item =
  let s = Int_index.find t.index item in
  if s >= 0 then s
  else begin
    let s = Int_index.length t.index in
    if s = Array.length t.values then begin
      let grown = Array.make (max 8 (2 * s)) Value.initial in
      Array.blit t.values 0 grown 0 s;
      t.values <- grown
    end;
    Int_index.set t.index item s;
    s
  end

let create ~site items =
  let n = List.length items in
  let t =
    {
      site;
      index = Int_index.create n;
      values = Array.make n Value.initial;
      hook = ignore;
      hooked = false;
    }
  in
  List.iter (fun item -> ignore (add t item)) items;
  t

let site t = t.site
let mem t item = Int_index.find t.index item >= 0

let not_placed t item =
  invalid_arg (Printf.sprintf "Store: item %d is not placed at site %d" item t.site)

(* The lookup and the slot update allocate nothing: a read costs no words,
   an apply only the new value. *)
let slot t item =
  let s = Int_index.find t.index item in
  if s < 0 then not_placed t item else s

let read t item = t.values.(slot t item)

let apply t item ~writer ?payload () =
  let s = slot t item in
  t.values.(s) <- Value.write ~writer ?payload t.values.(s);
  if t.hooked then t.hook (Applied { item; writer; payload })

let restore t item v =
  let s = add t item in
  t.values.(s) <- v

let install t item v =
  restore t item v;
  if t.hooked then t.hook (Installed { item; value = v })

let set_write_hook t f =
  t.hook <- f;
  t.hooked <- true

let fold f t acc =
  let acc = ref acc in
  Int_index.iter (fun item s -> acc := f item t.values.(s) !acc) t.index;
  !acc

let contents t = fold (fun item v acc -> (item, v) :: acc) t [] |> List.sort compare
let items t = fold (fun item _ acc -> item :: acc) t [] |> List.sort compare

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
      let s = Int_index.find t.index item in
      if s >= 0 then (acc + keyed_sum item t.values.(s)) land mask else acc)
    0 items
