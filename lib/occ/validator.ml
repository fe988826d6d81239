type txn = { gid : int; reads : (int * int) list; writes : int list }

type t = {
  latest : (int, int) Hashtbl.t; (* item -> last certified version *)
  mutable n_validated : int;
  mutable n_rejected : int;
}

let create () = { latest = Hashtbl.create 1024; n_validated = 0; n_rejected = 0 }

let latest t item = match Hashtbl.find t.latest item with v -> v | exception Not_found -> 0

let rec current t = function
  | [] -> true
  | (item, version) :: rest -> latest t item = version && current t rest

let rec bump t = function
  | [] -> []
  | item :: rest ->
      let v = latest t item + 1 in
      Hashtbl.replace t.latest item v;
      (item, v) :: bump t rest

let validate t txn =
  if current t txn.reads then begin
    let vwrites = bump t txn.writes in
    t.n_validated <- t.n_validated + 1;
    Some vwrites
  end
  else begin
    t.n_rejected <- t.n_rejected + 1;
    None
  end

let validated t = t.n_validated
let rejected t = t.n_rejected
