(** The Perf-Taint pipeline (paper Figure 2): static analysis, a tainted
    run of the program, and the post-processing that classifies every
    function and loop.  The result feeds experiment design, hybrid
    modeling, and validation. *)

module SMap = Ir.Cfg.SMap
module SSet = Ir.Cfg.SSet
module Obs = Interp.Observations

type t = {
  program : Ir.Types.program;
  static : Static_an.Classify.report;
  obs : Obs.t;
  labels : Taint.Label.table;
  deps : Deps.func_deps SMap.t;
  mpi_params : SSet.t SMap.t;
      (** per-MPI-routine dependencies from the library database *)
  world : Mpi_sim.Runtime.world;
  taint_args : (string * Ir.Types.value) list;
      (** entry bindings used for the tainted run *)
  steps : int;  (** instructions interpreted during the tainted run *)
  snapshot : Obs_metrics.snapshot;
      (** self-profile of this analysis: phase durations, label-table
          size, and (when a registry was supplied) per-instruction
          accounting *)
}

(** How a function is treated after the two pruning phases, relative to a
    set of modeling parameters (Table 2's categories). *)
type func_status =
  | Pruned_static      (** constant, proven at compile time *)
  | Pruned_dynamic     (** constant w.r.t. the model parameters, proven by
                           the tainted run *)
  | Kernel             (** computational kernel: tainted loops *)
  | Comm_routine       (** calls parameter-dependent MPI routines *)
  | Unexecuted         (** never reached by the tainted run *)

let status_name = function
  | Pruned_static -> "pruned-static"
  | Pruned_dynamic -> "pruned-dynamic"
  | Kernel -> "kernel"
  | Comm_routine -> "comm"
  | Unexecuted -> "unexecuted"

(* Phase gauge names; `phases` below extracts them from the snapshot. *)
let phase_static = "pipeline.phase.static_s"
let phase_taint_run = "pipeline.phase.taint_run_s"
let phase_post = "pipeline.phase.post_s"
let phase_total = "pipeline.phase.total_s"

(* The tainted run's engine: the compiled tier under the Taint policy. *)
module E = Interp.Compiled.Taint

(** Run the full analysis: static classification, then one tainted run of
    [program] with entry arguments [args] under MPI world [world].

    [metrics] turns on per-instruction accounting in the engine and
    collects everything into the given registry; without it a private
    registry still captures phase durations and the label-table size
    (three clock reads and a handful of counters — negligible next to the
    run itself).  [trace] records pipeline-phase spans, per-call function
    spans and loop-entry instants.  [profile] attaches a deterministic
    sampling profiler to the tainted run. *)
let analyze ?(config = Interp.Machine.default_config)
    ?(world = Mpi_sim.Runtime.default_world) ?metrics
    ?(trace = Obs_trace.disabled) ?profile program ~args =
  let reg = match metrics with Some m -> m | None -> Obs_metrics.create () in
  (* Lowering-cache traffic of this run: the counts live in domain-local
     refs inside Interp.Compiled (outside any engine registry, which the
     compile-identity oracle compares across tiers), so the pipeline
     snapshots the delta. *)
  let cache_h0, cache_m0 = Interp.Compiled.cache_stats () in
  let timed gauge_name span_name f =
    let record = Obs_metrics.set_gauge (Obs_metrics.gauge reg gauge_name) in
    Obs_clock.timed record (fun () ->
        Obs_trace.with_span trace ~cat:"pipeline" span_name f)
  in
  let total_record =
    Obs_metrics.set_gauge (Obs_metrics.gauge reg phase_total)
  in
  let static, m, entry, obs, labels, deps, mpi_params =
    Obs_clock.timed total_record (fun () ->
        let static =
          timed phase_static "pipeline.static" (fun () ->
              Ir.Validate.check_exn program;
              Static_an.Classify.classify program
                ~relevant_prim:Mpi_sim.Costdb.relevant_prim)
        in
        let m = E.create ~config ?metrics ~trace ?profile program in
        let entry = Ir.Types.find_func program program.Ir.Types.entry in
        timed phase_taint_run "pipeline.taint_run" (fun () ->
            Mpi_sim.Runtime.install_host (module E) world m;
            ignore (E.run m args));
        let obs = E.observations m in
        let labels = E.label_table m in
        let deps, mpi_params =
          timed phase_post "pipeline.post" (fun () ->
              (Deps.of_observations labels obs, Deps.routine_params labels obs))
        in
        (static, m, entry, obs, labels, deps, mpi_params))
  in
  Obs_metrics.add
    (Obs_metrics.counter reg "taint.labels")
    (List.length (Taint.Label.sources labels));
  Obs_metrics.add
    (Obs_metrics.counter reg "interp.steps")
    (E.steps_executed m);
  let cache_h1, cache_m1 = Interp.Compiled.cache_stats () in
  Obs_metrics.add
    (Obs_metrics.counter reg "compile.cache_hit")
    (cache_h1 - cache_h0);
  Obs_metrics.add
    (Obs_metrics.counter reg "compile.cache_miss")
    (cache_m1 - cache_m0);
  (* Per-function instruction-count distribution: the quantile view of
     where the tainted run spent its steps.  Fed in function-name order
     so the float sum accumulates identically across runs. *)
  let func_hist =
    Obs_metrics.histogram reg
      ~bounds:[| 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7 |]
      "interp.func_instrs"
  in
  List.iter
    (fun (fo : Interp.Observations.func_obs) ->
      if fo.Interp.Observations.fo_calls > 0 then
        Obs_metrics.observe func_hist
          (float_of_int fo.Interp.Observations.fo_instrs))
    (List.sort
       (fun a b ->
         compare a.Interp.Observations.fo_func b.Interp.Observations.fo_func)
       (Interp.Observations.func_list obs));
  {
    program;
    static;
    obs;
    labels;
    deps;
    mpi_params;
    world;
    taint_args = List.combine entry.Ir.Types.fparams args;
    steps = E.steps_executed m;
    snapshot = Obs_metrics.snapshot reg;
  }

(** Phase durations of this analysis, seconds, in pipeline order:
    [static], [taint_run], [post]. *)
let phases t =
  List.filter_map
    (fun (key, name) ->
      Option.map (fun v -> (name, v)) (Obs_metrics.find_gauge t.snapshot key))
    [
      (phase_static, "static");
      (phase_taint_run, "taint_run");
      (phase_post, "post");
      (phase_total, "total");
    ]

let executed t fname =
  match Hashtbl.find_opt t.obs.Obs.funcs fname with
  | Some fo -> fo.Obs.fo_calls > 0
  | None -> false

(** Classification of one function w.r.t. the chosen model parameters. *)
let status t ~model_params fname =
  if Static_an.Classify.is_pruned t.static fname then Pruned_static
  else if not (executed t fname) then Unexecuted
  else
    match Deps.find t.deps fname with
    | None -> Pruned_dynamic
    | Some fd ->
      let relevant s = SSet.exists (fun p -> List.mem p model_params) s in
      if relevant fd.Deps.fd_comm_params then Comm_routine
      else if relevant fd.Deps.fd_loop_params then Kernel
      else Pruned_dynamic

let function_names t =
  List.map (fun (f : Ir.Types.func) -> f.Ir.Types.fname) t.program.Ir.Types.funcs

(** Functions with a given status. *)
let functions_with t ~model_params st =
  List.filter (fun f -> status t ~model_params f = st) (function_names t)

(** The instrumentation selection: every function whose model can change
    with the parameters — kernels and communication routines (A3). *)
let relevant_functions t ~model_params =
  functions_with t ~model_params Kernel
  @ functions_with t ~model_params Comm_routine

(** Distinct MPI routines invoked anywhere in the program. *)
let mpi_routines_used t =
  SMap.fold
    (fun _ fd acc -> SSet.union acc fd.Deps.fd_mpi_routines)
    t.deps SSet.empty

let selection t ~model_params =
  SSet.union (SSet.of_list (relevant_functions t ~model_params))
    (mpi_routines_used t)

(** All parameters observed anywhere (explicit labels and implicit p). *)
let observed_params t =
  SMap.fold (fun _ fd acc -> SSet.union acc fd.Deps.fd_params) t.deps SSet.empty

(* Distinct static loops (function, header) satisfying [pred]. *)
let count_loops t pred =
  SMap.fold
    (fun fname fd acc ->
      List.fold_left
        (fun acc (ld : Deps.loop_dep) ->
          if pred ld then
            let key = (fname, ld.Deps.ld_header) in
            if List.mem key acc then acc else key :: acc
          else acc)
        acc fd.Deps.fd_loops)
    t.deps []
  |> List.length

(** Loops whose iteration count depends on at least one model parameter:
    the "relevant" loop count of Table 2.  Loops observed on several call
    paths count once. *)
let relevant_loops t ~model_params =
  count_loops t (fun ld ->
      SSet.exists (fun p -> List.mem p model_params) ld.Deps.ld_params)

(** Functions (resp. loops) affected by one specific parameter — the
    per-parameter coverage counts of Table 3. *)
let functions_affected_by t param =
  SMap.fold
    (fun fname fd acc ->
      if SSet.mem param fd.Deps.fd_params then fname :: acc else acc)
    t.deps []
  |> List.sort compare

let loops_affected_by t param =
  count_loops t (fun ld -> SSet.mem param ld.Deps.ld_params)

(** Count loop observations deduplicated per static loop (function,
    header). *)
let distinct_loops_observed t =
  SMap.fold
    (fun fname fd acc ->
      List.fold_left
        (fun acc (ld : Deps.loop_dep) ->
          let key = (fname, ld.Deps.ld_header) in
          if List.mem key acc then acc else key :: acc)
        acc fd.Deps.fd_loops)
    t.deps []
  |> List.length
