(** The measurement workflow after the tainted run: campaign, hybrid
    per-function fits and the contention check, on one measured app. *)

module Exp = Measure.Experiment

let machine = Mpi_sim.Machine.skylake_cluster

let measured (t : Apps.Registry.t) =
  match t.measured with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "%s has no measurement spec" t.name)

let design ?(seed = Exp.default_design.seed) t mode =
  { Exp.default_design with grid = (measured t).grid; mode; seed }

let datasets runs ~params kernels =
  List.filter_map
    (fun k ->
      let d = Exp.kernel_dataset runs ~params ~kernel:k in
      if d.Model.Dataset.points = [] then None else Some (k, d))
    kernels

let campaign ?pool t fs =
  Exp.run_design ?pool (measured t).spec machine
    (design t (Measure.Instrument.Selective fs))

let fit ?pool ?(events = Obs_events.disabled) (t : Apps.Registry.t) a mode
    runs fname =
  let m = measured t in
  let params = m.spec.Measure.Spec.model_params in
  match datasets runs ~params [ fname ] with
  | [ (_, data) ] ->
    let constraints =
      Modeling.constraints_aliased a mode ~model_params:params
        ~aliases:t.aliases fname
    in
    Some
      ( Model.Search.multi ~config:{ m.search with pool; events } ~constraints
          data,
        data )
  | _ -> None

let ranks_per_node = [ 2.; 4.; 6.; 8.; 10.; 12.; 14.; 16.; 18. ]

let contention t a fs =
  let m = measured t in
  let size, at = m.size_axis in
  let sweep =
    { Exp.default_design with
      grid = [ ("p", [ 64. ]); (size, [ at ]); ("r", ranks_per_node) ];
      mode = Measure.Instrument.Selective fs;
      seed = 7 }
  in
  let runs = Exp.run_design m.spec machine sweep in
  let data = datasets runs ~params:[ "r" ] (Ir.Cfg.SSet.elements fs) in
  (runs, List.length data, Validation.detect_contention a data)
