(** Scalability-bug hunting: extrapolate fitted per-function models to a
    target configuration and flag functions that will dominate at scale
    (the Calotoiu et al. SC'13 use case cited in the paper's
    introduction). *)

type entry = {
  e_func : string;
  e_model : Model.Expr.model;
  e_measured : float;
  e_projected : float;
  e_share_measured : float;
  e_share_projected : float;
  e_growth : float;
}

type ranking = {
  baseline : (string * float) list;
  target : (string * float) list;
  entries : entry list;  (** sorted by projected time, descending *)
  total_measured : float;
  total_projected : float;
}

val rank :
  baseline:(string * float) list ->
  target:(string * float) list ->
  (string * Model.Expr.model) list ->
  ranking

val bugs : ?share:float -> ?measured_below:float -> ranking -> entry list
(** Negligible in the measured range, dominant at the target. *)

val pp_entry : entry Fmt.t
