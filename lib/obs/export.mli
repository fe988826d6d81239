(** Trace exporters.

    Two formats:

    - {b JSONL}: one self-describing JSON object per line —
      [{"t":12.5,"e":"lock_wait","site":3,"owner":17,"item":42,"mode":"X"}] —
      convenient for [jq]-style ad-hoc analysis and streaming to stdout.

    - {b Chrome [trace_event]}: a JSON object loadable in
      [chrome://tracing] / Perfetto. Each site becomes one process track;
      transactions appear as async begin/end spans keyed by gid, queue-depth
      samples as counter series, everything else as instant events. *)

(** JSON string-escape [s]: quotes, backslashes, and every control
    character below 0x20 (named escapes for [\n]/[\r]/[\t], [\uXXXX]
    otherwise). Shared by the other [lib/obs] JSON emitters. *)
val escape : string -> string

(** Extra metadata fields ([protocol], [seed], …) for the export's leading
    metadata record, which always carries the trace ring [capacity] and the
    [dropped] event count — so a consumer can tell a complete trace from a
    wrapped one. *)
type meta = (string * [ `Int of int | `Float of float | `String of string | `Bool of bool ]) list

(** [jsonl_to_channel ?meta t oc] — one metadata record
    ([{"meta":{"capacity":…,"dropped":…,…}}]), then every event, one line
    each. *)
val jsonl_to_channel : ?meta:meta -> Trace.t -> out_channel -> unit
val jsonl_to_string : ?meta:meta -> Trace.t -> string

(** [chrome_to_channel ?n_sites ?meta t oc] — the complete Chrome trace
    JSON, with the metadata record under the top-level [otherData] key.
    [n_sites] sizes the per-site metadata tracks; inferred from the events
    when omitted. Transaction phase spans ({!Event.Span_phase}) render as
    complete duration slices on the origin site's track. *)
val chrome_to_channel : ?n_sites:int -> ?meta:meta -> Trace.t -> out_channel -> unit
val chrome_to_string : ?n_sites:int -> ?meta:meta -> Trace.t -> string
