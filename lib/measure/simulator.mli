(** The cluster run simulator: one simulated application run at a
    parameter configuration under an instrumentation mode, with ground
    truth + contention + hooks + intrusion + noise. *)

module Machine = Mpi_sim.Machine

type kernel_measurement = {
  km_name : string;
  km_calls : float;
  km_per_call : float;  (** measured seconds per invocation *)
  km_total : float;
}

type run = {
  rn_params : Spec.params;
  rn_mode : Instrument.mode;
  rn_rep : int;
  rn_ranks_per_node : int;
  rn_kernels : kernel_measurement list;  (** observed kernels only *)
  rn_total : float;       (** measured wall time, hooks included *)
  rn_base_total : float;  (** uninstrumented noise-free wall time *)
}

val ranks_of : Spec.params -> int
val ranks_per_node_of : Machine.t -> Spec.params -> int
(** The explicit ["r"] parameter, or all cores filled. *)

val true_time : Machine.t -> ranks_per_node:int -> Spec.kernel -> Spec.params -> float

val measure :
  ?sigma:float -> ?seed:int -> ?rep:int ->
  Spec.app -> Machine.t -> params:Spec.params -> mode:Instrument.mode -> run

val count : Obs_metrics.t -> run -> unit
(** Count one measured run in the campaign's simulated cost: a
    [sim.runs] counter, a [sim.run_wall_s] histogram, and an accumulated
    [sim.core_hours] gauge.  Measurement loops call it on the submitting
    domain, in design order. *)

type replay = {
  rp_params : Spec.params;
  rp_value : Ir.Types.value;  (** entry-function result *)
  rp_steps : int;             (** instructions + terminators executed *)
  rp_work : (string * int) list;
      (** per-function synthetic-work units, sorted by name *)
  rp_calls : (string * int) list;  (** per-function invocation counts *)
}

val replay :
  ?config:Interp.Engine.config -> ?world:Mpi_sim.Runtime.world ->
  Ir.Types.program -> params:Spec.params -> replay
(** Execute a PIR program at one configuration through the compiled
    Plain (shadow-free) engine, {!Interp.Compiled.Plain} — a clean
    measurement run on the same programs the tainted pipeline analyzes.
    Entry parameters are bound by name from [params]
    (truncated to int); ["p"] configures the MPI world size when the
    entry does not take it explicitly.
    @raise Invalid_argument when an entry parameter has no value.
    @raise Interp.Machine.Budget_exceeded / Interp.Machine.Runtime_error
    as the engine does. *)

val replay_work : replay -> string -> int
(** Synthetic-work units attributed to one function (0 if absent). *)

val overhead : run -> float
(** Relative instrumentation overhead (0.0 = none). *)

val kernel_measurement : run -> string -> kernel_measurement option

val kernel_time : run -> string -> float option
(** Measured per-invocation time, when observed. *)
