(** Model-quality statistics: R^2, adjusted R^2, AICc, relative errors,
    bootstrap confidence intervals. *)

type fit = (float * float) list
(** Pairs of (prediction, observation). *)

val mean : float list -> float
val rss : fit -> float
val tss : fit -> float

val r_squared : fit -> float
(** 1 = perfect; negative = worse than predicting the mean. *)

val adjusted_r_squared : k:int -> fit -> float
(** Penalises the [k] fitted coefficients. *)

val aic : ?corrected:bool -> k:int -> fit -> float
(** Akaike information criterion under Gaussian residuals (AICc by
    default); lower is better. *)

val median : float list -> float
(** Median; [nan] on empty input. *)

val mad : float list -> float
(** Raw (unscaled) median absolute deviation; [nan] on empty input. *)

val mad_filter : ?threshold:float -> float list -> float list
(** Drop values whose modified z-score ([|x - median| / (1.4826 * MAD)])
    exceeds [threshold] (default 3.5).  Zero MAD keeps only exact-median
    values; lists of length <= 1 pass through. *)

val percentile : float -> float list -> float
(** Nearest-rank percentile; [nan] on empty input. *)

val bootstrap_ci :
  ?trials:int ->
  ?seed:int ->
  fitter:('a list -> ((string * float) list -> float) option) ->
  coords:(string * float) list ->
  'a list ->
  float * float
(** 95% bootstrap interval of a prediction at [coords], refitting on
    resampled points. *)

val pairs_of_model : Expr.model -> Dataset.t -> fit
val coefficients : Expr.model -> int

type summary = {
  s_r2 : float;
  s_adj_r2 : float;
  s_aicc : float;
  s_smape : float;
  s_rss : float;
}

val summarize : Expr.model -> Dataset.t -> summary
val pp_summary : summary Fmt.t
