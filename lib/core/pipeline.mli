(** The Perf-Taint pipeline (paper Figure 2): static analysis, one tainted
    run, and the post-processing that classifies every function and
    loop. *)

module SMap = Ir.Cfg.SMap
module SSet = Ir.Cfg.SSet

type t = {
  program : Ir.Types.program;
  static : Static_an.Classify.report;
  obs : Interp.Observations.t;
  labels : Taint.Label.table;
  deps : Deps.func_deps SMap.t;
  mpi_params : SSet.t SMap.t;
      (** per-MPI-routine dependencies (library database) *)
  world : Mpi_sim.Runtime.world;
  taint_args : (string * Ir.Types.value) list;
  steps : int;  (** instructions interpreted by the tainted run *)
  snapshot : Obs_metrics.snapshot;
      (** self-profile: phase durations ([pipeline.phase.*_s] gauges),
          label-table size ([taint.labels]), and — when {!analyze}
          was given a registry — instruction-class counters *)
}

type func_status =
  | Pruned_static
  | Pruned_dynamic
  | Kernel
  | Comm_routine
  | Unexecuted

val status_name : func_status -> string

val analyze :
  ?config:Interp.Machine.config ->
  ?world:Mpi_sim.Runtime.world ->
  ?metrics:Obs_metrics.t ->
  ?trace:Obs_trace.sink ->
  ?profile:Obs_profile.t ->
  Ir.Types.program ->
  args:Ir.Types.value list ->
  t
(** Validate, statically classify, then run the tainted execution on
    {!Interp.Compiled.Taint}.  The three phases (static analysis,
    tainted run, post-processing) are individually timed; [metrics]
    additionally enables per-instruction accounting in the engine,
    [trace] records phase/function spans and loop-entry instants, and
    [profile] samples the tainted run's call stack every [interval]
    executed steps (deterministic: driven by the step count, never wall
    time).
    @raise Ir.Types.Ir_error on malformed programs
    @raise Interp.Machine.Runtime_error on dynamic errors. *)

val phases : t -> (string * float) list
(** Phase durations of this analysis in seconds: [static], [taint_run],
    [post], [total]. *)

val executed : t -> string -> bool
val status : t -> model_params:string list -> string -> func_status
val function_names : t -> string list
val functions_with : t -> model_params:string list -> func_status -> string list

val relevant_functions : t -> model_params:string list -> string list
(** The instrumentation selection: kernels and comm routines (A3). *)

val mpi_routines_used : t -> SSet.t

val selection : t -> model_params:string list -> SSet.t
(** The taint-derived instrumentation selection
    ({!Measure.Instrument.Selective}): the relevant functions plus the
    MPI routines the program uses. *)

val observed_params : t -> SSet.t

val relevant_loops : t -> model_params:string list -> int
(** Distinct static loops depending on a model parameter (Table 2). *)

val functions_affected_by : t -> string -> string list
val loops_affected_by : t -> string -> int
val distinct_loops_observed : t -> int
