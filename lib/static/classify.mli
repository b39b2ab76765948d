(** Compile-time pruning (paper Section 5.1): functions whose performance
    models are provably constant — no loops or only constant-trip loops,
    no performance-relevant library calls, and only callees with the same
    property. *)

module SMap = Ir.Cfg.SMap
module SSet = Ir.Cfg.SSet

type func_class = Static_constant | Potentially_parametric

type report = {
  classes : func_class SMap.t;
  loops : Tripcount.loop_summary list SMap.t;  (** per function *)
  recursive : SSet.t;
  total_functions : int;
  pruned_functions : int;
  total_loops : int;
  constant_loops : int;
  warnings : string list;
}

val classify :
  Ir.Types.program -> relevant_prim:(string -> bool) -> report
(** [relevant_prim] marks performance-relevant primitives (the MPI library
    database supplies it). *)

val is_pruned : report -> string -> bool

val surviving : report -> string list
(** Functions that need the dynamic phase, sorted. *)
