(** Machine-readable (JSON) export of analysis results, datasets and
    fitted models, as {!Obs_json} values. *)

val model_json : Model.Expr.model -> Obs_json.t
val dataset_json : Model.Dataset.t -> Obs_json.t

val analysis_json : Pipeline.t -> model_params:string list -> Obs_json.t
(** Program summary, per-function classification/dependencies, warnings. *)

val stats_json : Pipeline.t -> Obs_json.t
(** Self-profile of one analysis: phase durations, instruction counts by
    class, label-table size, full metrics snapshot. *)

val models_json :
  (string * Model.Search.result * Model.Dataset.t) list -> Obs_json.t
(** Fitted models of a campaign, with quality statistics. *)
