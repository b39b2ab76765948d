(** Interpreter bindings for the simulated MPI world: one representative
    rank of an SPMD program, with taint-source routines (MPI_Comm_size)
    returning values labelled with the implicit parameter p. *)

type world = {
  ranks : int;  (** communicator size: the implicit parameter p *)
  rank : int;   (** identity of the interpreted rank *)
}

val default_world : world

val install_host :
  (module Interp.Engine.HOST with type t = 'a) -> world -> 'a -> unit
(** Register every database routine as a PIR primitive on an engine of
    any tier and policy (labels are dropped under label-free policies). *)
