(** Deterministic, seeded fault plans for measurement campaigns: which
    run coordinates (configuration × repetition) fail, how (crash, hang,
    straggler inflation, corrupted durations), and whether the fault is
    transient (retryable) or persistent. *)

type kind =
  | Crash              (** the run dies partway through; no data *)
  | Hang               (** the run never terminates; killed once the
                           hang timeout has burned *)
  | Straggler of float (** completes with durations inflated by the
                           factor (2–8×: a slow node) *)
  | Corrupt of float   (** completes with duration outliers scaled by the
                           factor (25–100×: a broken timer) *)

type persistence =
  | Transient of int  (** fires on the first [n] attempts only *)
  | Persistent        (** fires on every attempt *)

type fault = { f_kind : kind; f_persistence : persistence }

type plan = {
  fp_seed : int;
  fp_crash : float;       (** per-coordinate crash probability *)
  fp_hang : float;
  fp_straggler : float;
  fp_corrupt : float;
  fp_persistent : float;  (** share of faults that are persistent *)
  fp_transient_attempts : int;
      (** a transient fault fires on the first 1..n attempts *)
}

val none : plan
(** The clean world: no faults, ever. *)

val uniform : ?seed:int -> ?persistent:float -> float -> plan
(** Same rate for all four fault kinds. *)

val total_rate : plan -> float

val kind_name : kind -> string
val kind_names : string list
(** All kind names, in declaration order — the metrics/journal vocabulary. *)

val at : plan -> params:Spec.params -> rep:int -> fault option
(** The fault (if any) injected at one run coordinate.  Deterministic in
    [(plan.fp_seed, params, rep)]; independent of the measurement-noise
    stream. *)

val active : fault -> attempt:int -> kind option
(** Does the fault fire on the [attempt]-th try (0-based)? *)

val of_spec : string -> (plan, string) result
(** Parse a ["crash=0.05,hang=0.02,persistent=0.2,seed=7"]-style spec
    (keys: crash, hang, straggler, corrupt, persistent, attempts, seed;
    all optional, empty string = {!none}). *)

val spec_of : plan -> string
(** Canonical spec string; [of_spec (spec_of p) = Ok p].  {!none}'s is
    printed once and shared. *)
