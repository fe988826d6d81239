(* The single source of truth for what protocols exist: [repdb protocols]
   renders this list, [--protocol] resolves names against it, and a registry
   test pins it. *)
let entries : (Protocol.t * string) list =
  [
    ((module Dag_wt : Protocol.S), "DAG(WT): whole-tree copy-graph ordering, eager in-tree");
    ((module Dag_t : Protocol.S), "DAG(T): per-item tree ordering, lazy between trees");
    ((module Backedge_proto : Protocol.S), "BackEdge: chain main-copy order, back-edge refresh");
    ((module Psl : Protocol.S), "PSL: primary-site locking with lazy replica refresh");
    ((module Lazy_master : Protocol.S), "Lazy-master: unordered lazy propagation from primaries");
    ((module Central : Protocol.S), "Central: single certifier orders every transaction");
    ((module Eager : Protocol.S), "Eager: synchronous write-all (ROWA) two-phase commit");
    ((module Naive : Protocol.S), "Naive: local commit, no global ordering (not 1SR)");
    ((module Occ_epoch : Protocol.S), "OCC: optimistic execution, batch validation per epoch");
    ((module Ssi : Protocol.S), "SSI: snapshot reads, certifier aborts dangerous structures");
  ]

let all : Protocol.t list = List.map fst entries

let cyclic_safe : Protocol.t list =
  [
    (module Backedge_proto : Protocol.S);
    (module Psl : Protocol.S);
    (module Lazy_master : Protocol.S);
    (module Central : Protocol.S);
    (module Eager : Protocol.S);
    (module Naive : Protocol.S);
    (module Occ_epoch : Protocol.S);
    (module Ssi : Protocol.S);
  ]

let dag_t_pipelined =
  Protocol.variant ~name:"dag-t-mc" ~create:Dag_t.create_pipelined (module Dag_t)

let backedge_general =
  Protocol.variant ~name:"backedge-gen" ~create:Backedge_proto.create_general
    (module Backedge_proto)

let variants = [ backedge_general; dag_t_pipelined ]

(* Dashless spellings ("dagwt", "dagt") are accepted as a convenience. *)
let canonical name =
  String.concat "" (String.split_on_char '-' (String.lowercase_ascii name))

let find name =
  List.find_opt (fun p -> canonical (Protocol.name p) = canonical name) (variants @ all)

let names = List.map Protocol.name (all @ variants)

let describe () =
  List.map (fun (p, doc) -> (Protocol.name p, doc)) entries
