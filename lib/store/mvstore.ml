(* A chain's versions, newest first. *)
type entry = Nil | Entry of { version : int; commit_ts : float; mutable older : entry }

(* [len] counts [head]'s entries; appends cut it back to [cap] only once it
   reaches [2 * cap], and reads look at no more than the newest [cap]. *)
type chain = { mutable head : entry; mutable len : int }

type t = { chains : (int, chain) Hashtbl.t; cap : int }

let chain version commit_ts = { head = Entry { version; commit_ts; older = Nil }; len = 1 }

let create ?(cap = 64) items =
  if cap < 1 then invalid_arg "Mvstore.create: cap < 1";
  let t = { chains = Hashtbl.create (List.length items * 2); cap } in
  List.iter (fun item -> Hashtbl.replace t.chains item (chain 0 neg_infinity)) items;
  t

let mem t item = Hashtbl.mem t.chains item

let rec version_at ts n = function
  | Entry e when n > 0 -> if e.commit_ts <= ts then Some e.version else version_at ts (n - 1) e.older
  | _ -> None

let read_at t ~item ~ts =
  match Hashtbl.find t.chains item with
  | c -> version_at ts t.cap c.head
  | exception Not_found -> None

let latest t ~item =
  match Hashtbl.find t.chains item with
  | { head = Entry e; _ } -> Some e.version
  | { head = Nil; _ } | (exception Not_found) -> None

(* Drop everything after the newest [n] entries. *)
let rec cut n = function Entry e -> if n <= 1 then e.older <- Nil else cut (n - 1) e.older | Nil -> ()

let append t ~item ~version ~commit_ts =
  match Hashtbl.find t.chains item with
  | exception Not_found -> invalid_arg (Printf.sprintf "Mvstore.append: item %d has no chain here" item)
  | c ->
      (match c.head with
      | Entry { version = prev; commit_ts = prev_ts; _ } ->
          if version <= prev then
            invalid_arg
              (Printf.sprintf "Mvstore.append: item %d version %d <= head %d" item version prev);
          if commit_ts < prev_ts then
            invalid_arg (Printf.sprintf "Mvstore.append: item %d commit_ts regressed" item)
      | Nil -> ());
      c.head <- Entry { version; commit_ts; older = c.head };
      c.len <- c.len + 1;
      if c.len >= 2 * t.cap then begin
        cut t.cap c.head;
        c.len <- t.cap
      end

let seed t ~item ~version ~commit_ts = Hashtbl.replace t.chains item (chain version commit_ts)

let drop t ~item = Hashtbl.remove t.chains item

let items t = Hashtbl.fold (fun item _ acc -> item :: acc) t.chains [] |> List.sort compare

(* Version-chain checksum: FNV-1a over the newest entry's (version, item),
   mirroring Value.checksum's construction. Commit timestamps are excluded —
   two replicas that converged on the same version may have installed it at
   different instants, and that is not divergence. *)
let checksum t ~item =
  match latest t ~item with
  | None -> None
  | Some version ->
      let mask = (1 lsl 62) - 1 in
      let fnv_prime = 0x100000001b3 in
      let h = ref 0x0bf29ce484222325 in
      let mix byte = h := (!h lxor byte) * fnv_prime land mask in
      mix (version land 0xff);
      mix ((version lsr 8) land 0xff);
      mix ((version lsr 16) land 0xff);
      mix (item land 0xff);
      mix ((item lsr 8) land 0xff);
      Some !h
