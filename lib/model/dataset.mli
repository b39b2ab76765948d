(** Measurement datasets for empirical modeling: parameter-space points
    with repeated measurements of the target metric. *)

type point = {
  coords : (string * float) list;  (** parameter name -> value *)
  reps : float list;               (** repeated measurements *)
}

type t = {
  params : string list;
  points : point list;
}

val create : string list -> point list -> t
val of_rows : string list -> ((string * float) list * float list) list -> t

val mean : float list -> float

val cov : point -> float
(** Coefficient of variation of one point's repetitions. *)

val max_cov : t -> float
(** Worst CoV over all points — the paper's soundness filter is 0.1. *)

val point_mean : point -> float

val coord : point -> string -> float
(** @raise Invalid_argument when the parameter is absent. *)

val slice : t -> fixed:(string * float) list -> t
(** Restrict to points matching [fixed]; those parameters are dropped. *)

val values : t -> string -> float list
(** Distinct sorted values of a parameter. *)

val min_value : t -> string -> float

val smape : (float * float) list -> float
(** Symmetric mean absolute percentage error of (prediction, observation)
    pairs, in percent. *)
