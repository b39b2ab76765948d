(** Instrumentation modes of the measurement infrastructure (paper A3). *)

module SSet = Ir.Cfg.SSet

type mode =
  | Uninstrumented
  | Full                  (** every function hooked *)
  | Default               (** the compiler-assisted filter: skips inline
                              candidates — including relevant ones *)
  | Selective of SSet.t   (** the taint-derived selection *)

val mode_name : mode -> string

val instrumented : mode -> Spec.kernel -> bool
val observed : mode -> Spec.kernel -> bool
(** Uninstrumented functions produce no measurements at all. *)
