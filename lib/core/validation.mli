(** Validation of measurements and experiment designs (paper Section C):
    hardware-contention detection and qualitative-behavior checks. *)

module SSet = Ir.Cfg.SSet

type contention_finding = {
  cf_func : string;
  cf_external_params : string list;
  cf_model : Model.Expr.model;
  cf_error : float;
}

val detect_contention :
  ?max_cov:float ->
  ?config:Model.Search.config ->
  Pipeline.t ->
  (string * Model.Dataset.t) list ->
  contention_finding list
(** Fit a black-box model per function dataset; report those whose
    statistically sound (CoV <= [max_cov], default 0.1) model contradicts
    the taint-derived dependency set. *)

type branch_behavior = Not_visited | Then_only | Else_only | Both

val behavior_name : branch_behavior -> string

type design_finding = {
  df_func : string;
  df_block : string;
  df_params : string list;
  df_behaviors : ((string * Ir.Types.value) list * branch_behavior) list;
      (** taint-run configuration -> observed behavior *)
}

val validate_design :
  model_params:string list -> Pipeline.t list -> design_finding list
(** Compare branch coverage across tainted runs; report parameter-tainted
    static branches whose behavior is not uniform (C2). *)

type gap_report = {
  gr_expected : int;  (** configurations in the design *)
  gr_complete : int;  (** configurations with all repetitions present *)
  gr_partial : (Measure.Spec.params * int) list;
      (** configuration -> completed repetitions, 0 < n < reps *)
  gr_missing : Measure.Spec.params list;
      (** configurations with no completed run at all *)
}

val grid_gaps :
  design:Measure.Experiment.design -> Measure.Simulator.run list -> gap_report
(** Which configurations of the design the run list actually covers —
    the visibility layer over dataset builders that skip unobserved
    configurations silently (C3, resilient campaigns). *)

val complete_grid : gap_report -> bool

val pp_gap_report : gap_report Fmt.t
