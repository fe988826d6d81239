(* Tests reach experiments the way the CLI does: by id, through
   [Experiment.registry]. [steps] only matters for probability sweeps. *)

module Experiment = Repdb.Experiment

let run ?pool ?(steps = 1) id base =
  match Experiment.find id with
  | Some e -> e.run ~pool ~base ~steps
  | None -> Alcotest.failf "unknown experiment %S" id

let figure ?pool ?steps id base =
  match run ?pool ?steps id base with
  | Experiment.Figure fig -> fig
  | Reports _ -> Alcotest.failf "experiment %S is a report list, not a figure" id

(* Everything an experiment reports, as text: a figure's CSV, or the full
   rendering of a report list. *)
let output ?pool ?steps id base =
  match run ?pool ?steps id base with
  | Experiment.Figure fig -> Experiment.to_csv fig
  | Reports rs -> Fmt.str "%a" Experiment.pp_reports rs
