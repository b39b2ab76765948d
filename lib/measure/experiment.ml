(** Experiment design and execution: parameter grids, repetitions, and the
    bookkeeping the paper reports — number of required runs and core-hour
    cost (A1/A3).  Converts collections of simulated runs into modeling
    datasets for Extra-P. *)

type design = {
  grid : (string * float list) list;  (** full-factorial parameter values *)
  reps : int;
  mode : Instrument.mode;
  sigma : float;   (** relative measurement noise level *)
  seed : int;
}

let default_design =
  { grid = []; reps = 5; mode = Instrument.Full; sigma = 0.02; seed = 42 }

(** Cartesian product of a parameter grid: every combination. *)
let grid_configs grid =
  List.fold_left
    (fun acc (name, values) ->
      List.concat_map
        (fun partial -> List.map (fun v -> partial @ [ (name, v) ]) values)
        acc)
    [ [] ] grid

let configs design = grid_configs design.grid

(* Refuse a design that measures nothing or draws its noise from a
   negative or non-finite sigma, naming the field and its value; the
   sigma test is written so NaN fails it too. *)
let check_design design =
  if design.reps < 1 then
    invalid_arg
      (Printf.sprintf "Measure.Experiment: reps must be >= 1 (got %d)"
         design.reps);
  if not (Float.is_finite design.sigma && design.sigma >= 0.) then
    invalid_arg
      (Printf.sprintf
         "Measure.Experiment: sigma must be finite and >= 0 (got %g)"
         design.sigma)

let run_design ?(pool = Par.Pool.serial) ?metrics app machine design =
  check_design design;
  (match metrics with
  | None -> ()
  | Some reg -> Obs_metrics.incr (Obs_metrics.counter reg "sim.campaigns"));
  let coords =
    List.concat_map
      (fun params -> List.init design.reps (fun rep -> (params, rep)))
      (configs design)
  in
  let runs =
    Par.Pool.map pool
      (fun (params, rep) ->
        Simulator.measure ~sigma:design.sigma ~seed:design.seed ~rep app
          machine ~params ~mode:design.mode)
      coords
  in
  (* Counted here, in design order, so metric float sums accumulate in
     the same order at every job count. *)
  Option.iter (fun reg -> List.iter (Simulator.count reg) runs) metrics;
  runs

(** Clean-replay campaign: execute a PIR program at every grid
    configuration through the Plain engine.  Replays are deterministic,
    so there are no repetitions — one run per configuration, the paper's
    "many clean measurement runs" against actual programs rather than the
    analytic spec. *)
let replay_runs ?config ?world program ~grid =
  List.map
    (fun params -> Simulator.replay ?config ?world program ~params)
    (grid_configs grid)

(* One point per configuration (restricted to [params]), in order of
   first appearance, holding the [value] of each run that has one, in
   run order. *)
let dataset runs ~params value =
  let tbl : (Spec.params, float list) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (r : Simulator.run) ->
      match value r with
      | None -> ()
      | Some t ->
        let key = List.filter (fun (n, _) -> List.mem n params) r.rn_params in
        (match Hashtbl.find_opt tbl key with
        | None ->
          order := key :: !order;
          Hashtbl.replace tbl key [ t ]
        | Some ts -> Hashtbl.replace tbl key (t :: ts)))
    runs;
  Model.Dataset.of_rows params
    (List.rev_map (fun key -> (key, List.rev (Hashtbl.find tbl key))) !order)

(** Modeling dataset for one kernel: one point per configuration, one
    repetition per run.  Configurations where the kernel was not observed
    (filtered out by the instrumentation mode) produce no points — the
    false-negative effect of bad filters. *)
let kernel_dataset runs ~params ~kernel =
  dataset runs ~params (fun r -> Simulator.kernel_time r kernel)

(** Dataset of total application wall time. *)
let total_dataset runs ~params =
  dataset runs ~params (fun (r : Simulator.run) -> Some r.rn_total)

(** Aggregate cost of an experiment campaign in core-hours: each run
    occupies p cores for its (instrumented) wall time. *)
let core_hours runs =
  List.fold_left
    (fun acc (r : Simulator.run) ->
      let p = float_of_int (Simulator.ranks_of r.rn_params) in
      acc +. (r.rn_total *. p /. 3600.))
    0. runs

let run_count = List.length
