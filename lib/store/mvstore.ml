type entry = { version : int; commit_ts : float }

type t = {
  chains : (int, entry list ref) Hashtbl.t; (* item -> newest-first versions *)
  cap : int;
}

let create ?(cap = 64) items =
  let t = { chains = Hashtbl.create (List.length items * 2); cap } in
  List.iter
    (fun item ->
      Hashtbl.replace t.chains item (ref [ { version = 0; commit_ts = neg_infinity } ]))
    items;
  t

let mem t item = Hashtbl.mem t.chains item

let read_at t ~item ~ts =
  match Hashtbl.find_opt t.chains item with
  | None -> None
  | Some chain ->
      let rec find = function
        | [] -> None
        | e :: rest -> if e.commit_ts <= ts then Some e.version else find rest
      in
      find !chain

let latest t ~item =
  match Hashtbl.find_opt t.chains item with
  | None -> None
  | Some chain -> ( match !chain with [] -> None | e :: _ -> Some e.version)

let truncate cap chain =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | e :: rest -> e :: take (n - 1) rest
  in
  take cap chain

let append t ~item ~version ~commit_ts =
  match Hashtbl.find_opt t.chains item with
  | None -> invalid_arg (Printf.sprintf "Mvstore.append: item %d has no chain here" item)
  | Some chain ->
      (match !chain with
      | { version = prev; commit_ts = prev_ts } :: _ ->
          if version <= prev then
            invalid_arg
              (Printf.sprintf "Mvstore.append: item %d version %d <= head %d" item version prev);
          if commit_ts < prev_ts then
            invalid_arg (Printf.sprintf "Mvstore.append: item %d commit_ts regressed" item)
      | [] -> ());
      chain := truncate t.cap ({ version; commit_ts } :: !chain)

let seed t ~item ~version ~commit_ts =
  Hashtbl.replace t.chains item (ref [ { version; commit_ts } ])

let drop t ~item = Hashtbl.remove t.chains item

let items t = Hashtbl.fold (fun item _ acc -> item :: acc) t.chains [] |> List.sort compare

(* Version-chain checksum: FNV-1a over the newest entry's (version, item),
   mirroring Value.checksum's construction. Commit timestamps are excluded —
   two replicas that converged on the same version may have installed it at
   different instants, and that is not divergence. *)
let checksum t ~item =
  match Hashtbl.find_opt t.chains item with
  | None | Some { contents = [] } -> None
  | Some { contents = { version; _ } :: _ } ->
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
