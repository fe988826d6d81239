type item = int
type op = Read of item | Write of item
type spec = { origin : int; ops : op list }

type abort_reason =
  | Lock_timeout
  | Deadlock
  | Remote_denied
  | Propagation_timeout
  | Deadline_exceeded
  | Partitioned
  | Validation_failed
  | First_committer_lost
  | Dangerous_structure
type outcome = Committed | Aborted of abort_reason

let all_abort_reasons =
  [
    Lock_timeout;
    Deadlock;
    Remote_denied;
    Propagation_timeout;
    Deadline_exceeded;
    Partitioned;
    Validation_failed;
    First_committer_lost;
    Dangerous_structure;
  ]

let reads spec = List.filter_map (function Read i -> Some i | Write _ -> None) spec.ops

(* Recursions on top-level functions, so a call allocates only the list it
   returns. *)
let rec write_items = function
  | [] -> []
  | Write i :: rest -> i :: write_items rest
  | Read _ :: rest -> write_items rest

let rec strictly_ascending = function
  | (a : item) :: (b :: _ as rest) -> a < b && strictly_ascending rest
  | _ -> true

(* Generator specs list their ops in ascending item order, each item once,
   so the sort is skipped for them. *)
let writes spec =
  let items = write_items spec.ops in
  if strictly_ascending items then items else List.sort_uniq Int.compare items

let is_read_only spec = List.for_all (function Read _ -> true | Write _ -> false) spec.ops

let pp_op ppf = function
  | Read i -> Fmt.pf ppf "r(%d)" i
  | Write i -> Fmt.pf ppf "w(%d)" i

let pp_spec ppf spec =
  Fmt.pf ppf "@[txn@%d:%a@]" spec.origin (Fmt.list ~sep:Fmt.sp pp_op) spec.ops

let string_of_abort = function
  | Lock_timeout -> "lock-timeout"
  | Deadlock -> "deadlock"
  | Remote_denied -> "remote-denied"
  | Propagation_timeout -> "propagation-timeout"
  | Deadline_exceeded -> "deadline-exceeded"
  | Partitioned -> "partitioned"
  | Validation_failed -> "validation-failed"
  | First_committer_lost -> "first-committer-lost"
  | Dangerous_structure -> "dangerous-structure"

let pp_outcome ppf = function
  | Committed -> Fmt.string ppf "committed"
  | Aborted r -> Fmt.pf ppf "aborted(%s)" (string_of_abort r)
