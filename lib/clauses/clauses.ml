type clause = { text : string; kind : string; arg : string option; opts : (string * string) list }

let ( let* ) = Result.bind

(* Split [s] at the first [c]. *)
let cut c s =
  match String.index_opt s c with
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> None

let rec all f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = all f rest in
      Ok (y :: ys)

(* "k1=v1,k2=v2" -> reversed assoc list *)
let parse_opts s =
  let kv part =
    match cut '=' part with
    | Some kv -> Ok kv
    | None -> Error (Printf.sprintf "expected key=value, got %S" part)
  in
  Result.map List.rev (all kv (if s = "" then [] else String.split_on_char ',' s))

let clause text =
  let head, opts_s = Option.value (cut ':' text) ~default:(text, "") in
  let* opts = parse_opts opts_s in
  let kind, arg =
    match cut '@' head with Some (kind, arg) -> (kind, Some arg) | None -> (head, None)
  in
  Ok { text; kind; arg; opts }

let parse ~prefix f init spec =
  String.split_on_char ';' spec
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.fold_left (fun acc text -> Result.bind acc (fun acc -> Result.bind (clause text) (f acc))) (Ok init)
  |> Result.map_error (fun e -> prefix ^ ": " ^ e)

let float name v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s is not a number: %S" name v)

let int name v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s is not an integer: %S" name v)

let req c key parse =
  match List.assoc_opt key c.opts with
  | Some v -> parse key v
  | None -> Error (Printf.sprintf "missing %s=..." key)

let opt c key ~default parse =
  match List.assoc_opt key c.opts with Some v -> parse key v | None -> Ok default

let fmt_float f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s
  else
    let s = Printf.sprintf "%.16g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let print kind ~arg opts =
  let opts = String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) opts) in
  kind ^ "@" ^ arg ^ ":" ^ opts

let join = String.concat ";"
