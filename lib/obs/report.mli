(** Render a run report from a timeline CSV.

    [parse] reads the CSV produced by {!Timeline.to_csv} (tolerating a
    missing [#] metadata line), and {!to_markdown} renders it as markdown
    with Unicode block sparklines. *)

type t

val parse : string -> (t, string) result
val meta : t -> (string * string) list
val n_rows : t -> int

(** [column t name] — the series for an exact column name. *)
val column : t -> string -> float list option

(** [site_columns t prefix] — all [(site, series)] for columns named
    [prefix.N], sorted by site. *)
val site_columns : t -> string -> (int * float list) list

val to_markdown : t -> string
