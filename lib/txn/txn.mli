(** Transaction vocabulary shared by all protocols.

    Following the system model of the paper: a transaction originates at a
    single site as a sequence of read and write operations; it may read any
    item placed at its originating site but update only items whose primary
    copy is there. *)

type item = int

type op = Read of item | Write of item

type spec = {
  origin : int;  (** Originating site. *)
  ops : op list;  (** Executed in order. *)
}

(** Why an execution attempt failed. *)
type abort_reason =
  | Lock_timeout  (** A lock wait exceeded the deadlock timeout. *)
  | Deadlock  (** Chosen as deadlock victim (detection policy or BackEdge). *)
  | Remote_denied  (** A remote operation (PSL read / eager write) was refused. *)
  | Propagation_timeout  (** BackEdge primary gave up waiting for its special message. *)
  | Deadline_exceeded  (** The client's per-transaction deadline expired mid-flight. *)
  | Partitioned
      (** A required remote site is unreachable behind an active network
          partition; the protocol failed fast instead of stalling. *)
  | Validation_failed
      (** Optimistic backward validation found a read that is no longer
          current (occ-epoch), or a snapshot read that was not the latest
          version as of the begin timestamp (ssi). *)
  | First_committer_lost
      (** SSI first-committer-wins: a concurrent transaction writing an
          overlapping item committed first. *)
  | Dangerous_structure
      (** SSI: committing would complete an rw-antidependency pivot
          (in-edge and out-edge both to concurrent transactions). *)

type outcome = Committed | Aborted of abort_reason

(** Every constructor of {!abort_reason}, in declaration order — the
    experiment CSV derives its per-reason abort columns from this list. *)
val all_abort_reasons : abort_reason list

val reads : spec -> item list
(** Items read, in op order, duplicates preserved. *)

val writes : spec -> item list
(** The write set: items written, ascending, each once — the order in which
    every protocol applies and propagates them. *)

val is_read_only : spec -> bool

val pp_spec : Format.formatter -> spec -> unit
val pp_outcome : Format.formatter -> outcome -> unit
val string_of_abort : abort_reason -> string
