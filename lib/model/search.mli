(** PMNF hypothesis search — the Extra-P model generator (paper Section
    4.5), with the published single-parameter search space and the
    multi-parameter best-single-models heuristic.  The hybrid (tainted)
    mode restricts the space through {!constraints}. *)

type aggregate =
  | Mean    (** classic Extra-P: fit the mean of the repetitions *)
  | Median  (** robust to corrupted repetitions *)

type config = {
  exponents : float list;    (** the set I of polynomial exponents *)
  log_exponents : int list;  (** the set J of logarithm exponents *)
  max_terms : int;
      (** n in the PMNF: 1 or 2 (the paper uses 2).  {!single} and
          {!multi} raise [Invalid_argument] naming this field for any
          other value. *)
  min_improvement : float;
      (** relative cross-validated-error margin a parametric hypothesis
          must gain over the constant model.  Default 0 — Extra-P 3.0's
          pure best-fit selection, which is what lets noise on constant
          functions be modeled (the B1 failure mode); set to ~0.1 as an
          opt-in guard. *)
  aggregate : aggregate;
      (** how a point's repeated measurements collapse into the fitted
          value; default [Mean] *)
  metrics : Obs_metrics.t option;
      (** when set, the search records [search.candidates.single_term],
          [search.candidates.two_term], [search.candidates.multi_param],
          [search.evaluated], [search.rejected.unfit] and
          [search.rejected.threshold] counters into this registry.
          Default [None]: no accounting, no overhead. *)
  pool : Par.Pool.t option;
      (** when set, candidate hypotheses are scored on this domain pool
          (workers read the basis the submitting domain built and reuse
          private scratch systems); selection stays a serial fold in
          candidate order, so the chosen model, error, and every
          search.* counter are bit-identical to the serial search.
          Default [None]: serial scoring. *)
  events : Obs_events.sink;
      (** structured {!event_names} stream — best-so-far improvements
          ([search.best], debug) and the final selection
          ([search.selected]).  Emitted from the serial selection fold,
          so the stream is identical with or without a pool.  Default
          [Obs_events.disabled]. *)
}

val default_config : config
(** The exact single-parameter search space printed in the paper. *)

val extended_config : config
(** [default_config] plus negative polynomial exponents, for
    strong-scaling metrics that shrink with a parameter. *)

val event_names : (string * string) list
(** The [search.*] structured-event vocabulary (name, meaning) — kept in
    sync with doc/OBSERVABILITY.md by a drift test. *)

type constraints = {
  allowed : string list option;
      (** parameters permitted to appear; [None] = all (black-box mode) *)
  multiplicative : (string -> string -> bool) option;
      (** may these two parameters share a product term? [None] = yes *)
}

val unconstrained : constraints

type result = {
  model : Expr.model;
  error : float;  (** leave-one-out cross-validated SMAPE, percent *)
  rss : float;
  hypotheses_tried : int;
}

val single :
  ?config:config ->
  ?constraints:constraints ->
  param:string ->
  (float * float) list ->
  result
(** Best single-parameter model of [(x, y)] samples.  The constant model
    always participates; a hypothesis must beat it on cross-validated
    error to be selected.
    @raise Invalid_argument when [config.max_terms] is not 1 or 2
    (["Model.Search.single: max_terms must be 1 or 2"]). *)

val multi :
  ?config:config -> ?constraints:constraints -> Dataset.t -> result
(** Multi-parameter search: per-parameter best single models on slices
    where the other parameters sit at their minimum, then all
    additive/multiplicative compositions of their dominant terms.
    @raise Invalid_argument on a dataset with no points
    (["Model.Search.multi: empty dataset (no observed configurations)"])
    or when [config.max_terms] is not 1 or 2
    (["Model.Search.multi: max_terms must be 1 or 2"]). *)

val multi_robust :
  ?threshold:float ->
  ?config:config ->
  ?constraints:constraints ->
  Dataset.t ->
  result * int
(** Degradation-tolerant {!multi}: per configuration, repetitions whose
    modified z-score exceeds [threshold] (default 3.5; see
    {!Stats.mad_filter}) are rejected, configurations left empty are
    dropped, and the survivors are aggregated by median.  Returns the
    fit plus the number of rejected measurements.
    @raise Invalid_argument when rejection leaves no points at all. *)
