(** Ground-truth performance specification of a simulated application:
    per kernel, its true invocation count and execution time as functions
    of the program parameters.  The simulator derives noisy, instrumented,
    contended measurements from this truth; the truth also serves as the
    reference the paper obtained from manual performance modeling. *)

module Machine = Mpi_sim.Machine

type params = (string * float) list

val param : params -> string -> float
(** @raise Invalid_argument when the parameter is absent. *)

type kernel_kind =
  | Compute         (** an application computational kernel *)
  | Communication   (** an application routine dominated by MPI calls *)
  | Mpi             (** an MPI library routine itself *)
  | Helper          (** tiny accessor/setup code with constant runtime *)

type kernel = {
  kname : string;
  kind : kernel_kind;
  calls : params -> float;  (** invocations per run (per rank) *)
  base_time : params -> Machine.t -> float;
      (** total exclusive seconds per run, per rank *)
  memory_bound : float;
      (** fraction of time subject to memory-bandwidth contention *)
  tiny : bool;
      (** inline candidate: excluded by the default Score-P filter *)
  full_instr_extra : params -> Machine.t -> float;
      (** extra measured seconds per invocation under full
          instrumentation: the B2 intrusion *)
  truth_deps : string list;
      (** parameters the kernel truly depends on (quality reference) *)
}

type app = {
  aname : string;
  kernels : kernel list;
  model_params : string list;
}

val kernel :
  ?kind:kernel_kind ->
  ?memory_bound:float ->
  ?tiny:bool ->
  ?full_instr_extra:(params -> Machine.t -> float) ->
  calls:(params -> float) ->
  base_time:(params -> Machine.t -> float) ->
  truth_deps:string list ->
  string ->
  kernel

val find_kernel : app -> string -> kernel
(** @raise Invalid_argument on unknown kernels. *)
