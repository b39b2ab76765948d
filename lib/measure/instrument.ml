(** Instrumentation modes of the measurement infrastructure (paper A3).

    - [Uninstrumented]: the baseline run, no hooks.
    - [Full]: every function carries enter/exit hooks — the mode empirical
      modeling is forced into when the filter cannot be trusted.
    - [Default]: Score-P's compiler-assisted filter, which skips functions
      the compiler would inline; cheap, but it also skips small
      performance-relevant functions (false negatives, paper A3/B2).
    - [Selective names]: Perf-Taint's taint-derived selection — only the
      functions proven performance-relevant are instrumented. *)

module SSet = Ir.Cfg.SSet

type mode =
  | Uninstrumented
  | Full
  | Default
  | Selective of SSet.t

let mode_name = function
  | Uninstrumented -> "none"
  | Full -> "full"
  | Default -> "default"
  | Selective _ -> "selective"

(** Is this kernel instrumented under [mode]? *)
let instrumented mode (k : Spec.kernel) =
  match mode with
  | Uninstrumented -> false
  | Full -> true
  | Default -> not k.Spec.tiny
  | Selective names -> SSet.mem k.Spec.kname names

(** Instrumented functions can be *observed*; uninstrumented ones produce
    no measurements at all (the source of default-mode false negatives). *)
let observed = instrumented
