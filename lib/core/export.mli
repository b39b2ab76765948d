(** Machine-readable (JSON) export of analysis results, datasets and
    fitted models. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val pp : json Fmt.t
val to_string : json -> string

val model_json : Model.Expr.model -> json
val result_json : Model.Search.result -> json
val dataset_json : Model.Dataset.t -> json
val func_deps_json : Deps.func_deps -> json

val analysis_json : Pipeline.t -> model_params:string list -> json
(** Program summary, per-function classification/dependencies, warnings. *)

val snapshot_json : Obs_metrics.snapshot -> json
(** Counters, gauges, and histograms keyed by metric name. *)

val stats_json : Pipeline.t -> json
(** Self-profile of one analysis: phase durations, instruction counts by
    class, label-table size, full metrics snapshot. *)

val models_json :
  (string * Model.Search.result * Model.Dataset.t) list -> json
(** Fitted models of a campaign, with quality statistics. *)
