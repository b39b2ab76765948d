(** Experiment design and execution: parameter grids, repetitions, and
    the bookkeeping the paper reports (run counts, core-hours). *)

type design = {
  grid : (string * float list) list;  (** full-factorial values *)
  reps : int;
  mode : Instrument.mode;
  sigma : float;
  seed : int;
}

val default_design : design

val configs : design -> Spec.params list
(** The cartesian product of [design.grid]. *)

val check_design : design -> unit
(** @raise Invalid_argument naming the field and its value unless
    [reps >= 1] and [sigma] is finite and [>= 0].  {!run_design} and
    {!Campaign.run} call it first. *)

val run_design :
  ?pool:Par.Pool.t ->
  ?metrics:Obs_metrics.t ->
  Spec.app -> Mpi_sim.Machine.t -> design -> Simulator.run list
(** Execute the full-factorial design ({!check_design} first).
    [metrics] counts campaigns and runs and accumulates the simulated
    core-hour cost (see {!Simulator.count}).  [pool] (default
    {!Par.Pool.serial}) runs the coordinates; runs and metrics are
    bit-identical at every job count (ordered collection; every run
    counted in design order on the submitting domain). *)

val replay_runs :
  ?config:Interp.Engine.config -> ?world:Mpi_sim.Runtime.world ->
  Ir.Types.program -> grid:(string * float list) list ->
  Simulator.replay list
(** One deterministic clean {!Simulator.replay} per grid configuration. *)

val kernel_dataset :
  Simulator.run list -> params:string list -> kernel:string -> Model.Dataset.t
(** Per-invocation measurements of one kernel, keyed by the given
    parameters; unobserved configurations yield no points. *)

val total_dataset : Simulator.run list -> params:string list -> Model.Dataset.t

val core_hours : Simulator.run list -> float
val run_count : Simulator.run list -> int
