(** The paper's measurement workflow after the tainted run (Fig. 2), on
    a measured row of {!Apps.Registry}: a campaign over the
    taint-derived instrumentation selection, hybrid per-function fits
    (Section 4.5) and the ranks-per-node contention check (Fig. 5, C1).
    Every design takes its repetitions and noise level from
    {!Measure.Experiment.default_design}, and every run is simulated on
    {!Mpi_sim.Machine.skylake_cluster}.  The functions taking a row
    raise [Invalid_argument] when it has no measurement spec. *)

val design :
  ?seed:int -> Apps.Registry.t -> Measure.Instrument.mode ->
  Measure.Experiment.design
(** The row's campaign grid, with the default design's noise seed
    unless [seed] is given. *)

val datasets :
  Measure.Simulator.run list -> params:string list -> string list ->
  (string * Model.Dataset.t) list
(** Each named kernel's dataset over [params], in order, leaving out the
    kernels the runs never measured. *)

val campaign :
  ?pool:Par.Pool.t -> Apps.Registry.t -> Ir.Cfg.SSet.t ->
  Measure.Simulator.run list
(** The runs of {!design} under selective instrumentation of the given
    functions, on [pool] when given. *)

val fit :
  ?pool:Par.Pool.t -> ?events:Obs_events.sink -> Apps.Registry.t ->
  Pipeline.t -> Modeling.mode -> Measure.Simulator.run list -> string ->
  (Model.Search.result * Model.Dataset.t) option
(** One function's model over the spec's model parameters, with the
    dataset it fits: the row's search space, restricted by
    {!Modeling.constraints_aliased} under the mode, scored on [pool]
    and logged to [events] when given.  [None] when the runs never
    measured the function. *)

val contention :
  Apps.Registry.t -> Pipeline.t -> Ir.Cfg.SSet.t ->
  Measure.Simulator.run list * int * Validation.contention_finding list
(** Sweep the ranks per node r = 2, 4, ..., 18 at p = 64 and the row's
    size axis, with noise seed 7, under selective instrumentation of
    the given functions, and check the measured ones with
    {!Validation.detect_contention}.  Returns the sweep's runs, the
    number of functions it measured and the findings. *)
