type txn = { gid : int; reads : (int * int) list; writes : int list }

type t = {
  latest : (int, int) Hashtbl.t; (* item -> last certified version *)
  mutable n_validated : int;
  mutable n_rejected : int;
}

let create () = { latest = Hashtbl.create 1024; n_validated = 0; n_rejected = 0 }

let latest t item = Option.value ~default:0 (Hashtbl.find_opt t.latest item)

let validate t txn =
  if List.for_all (fun (item, version) -> latest t item = version) txn.reads then begin
    let vwrites =
      List.map
        (fun item ->
          let v = latest t item + 1 in
          Hashtbl.replace t.latest item v;
          (item, v))
        txn.writes
    in
    t.n_validated <- t.n_validated + 1;
    Some vwrites
  end
  else begin
    t.n_rejected <- t.n_rejected + 1;
    None
  end

let validated t = t.n_validated
let rejected t = t.n_rejected
