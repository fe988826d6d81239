(** The clause grammar shared by the [--faults] and [--reconfig] specs.

    A spec is a [;]-separated list of clauses, each trimmed, blanks skipped.
    A clause is [head] or [head:k1=v1,k2=v2], where [head] is [kind@arg] or
    a bare word. What each kind means is up to the caller. *)

type clause = {
  text : string;  (** The whole clause. *)
  kind : string;  (** [head] up to its first ['@'], or all of it. *)
  arg : string option;  (** [head] after its first ['@']. *)
  opts : (string * string) list;  (** Reversed: a repeated key's last value wins. *)
}

(** [parse ~prefix f init spec] folds [f] over the clauses of [spec], left to
    right, up to the first error; every error text comes back prefixed with
    [prefix ^ ": "]. *)
val parse :
  prefix:string -> ('a -> clause -> ('a, string) result) -> 'a -> string -> ('a, string) result

(** Value parsers: the value's name (for the error text), then the value. *)
val float : string -> string -> (float, string) result

val int : string -> string -> (int, string) result

(** [req c key parse] — option [key], parsed; an error when missing. [opt]
    gives [default] instead. *)
val req : clause -> string -> (string -> string -> ('a, string) result) -> ('a, string) result

val opt :
  clause -> string -> default:'a -> (string -> string -> ('a, string) result) -> ('a, string) result

(** [all f xs] — [f] on each of [xs] in order, up to the first error. *)
val all : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result

(** The shortest of [%.15g], [%.16g] and [%.17g] that parses back to the
    same float, so a printed spec parses back unchanged. *)
val fmt_float : float -> string

(** [print kind ~arg opts] — [kind@arg:k1=v1,...]; [join] puts [;] between
    clauses. *)
val print : string -> arg:string -> (string * string) list -> string

val join : string list -> string
