(** Centralized certification — the replication-graph approach of Breitbart &
    Korth 1997 / Anderson et al. 1998, which the paper cites as the prior
    serializable lazy scheme and dismisses because "the central site becomes
    a bottleneck if the number of sites becomes large" (Section 1.2).

    A designated central site (site 0) tracks, per item, the number of
    certified committed writes ({!Repdb_occ.Validator}'s version table) — a
    compact stand-in for the replication graph. A transaction executes
    locally under strict 2PL, then (still holding its locks) submits its
    read versions and write set for certification: it is accepted iff
    every item it read was current, i.e. no transaction certified a
    conflicting write since. Accepted transactions commit and push their
    updates directly to the replica sites; per-item update streams
    originate at a single primary, so FIFO delivery applies them in
    certification order. Works on arbitrary copy graphs (cycles
    included).

    Every transaction — read-only ones too — pays a round trip to, and CPU
    at, the central site, which is exactly the bottleneck the paper
    predicts; the scaling ablation quantifies it. *)

include Protocol.S

(** Transactions certified (accepted) and rejected so far. *)
val certified : t -> int

val rejected : t -> int
