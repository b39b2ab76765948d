(** Experiment-design generation from taint results (paper A1/A2):
    which parameters to fix, which to sweep jointly (multiplicative
    dependencies) and which to sweep independently (additive). *)

module SSet = Ir.Cfg.SSet

type axis = { param : string; values : float list }

type decision =
  | Swept_jointly of string list
  | Swept_alone
  | Fixed_irrelevant
  | Fixed_global_factor
      (** scales the whole computation linearly (LULESH's iters) *)

type plan = {
  axes : axis list;
  decisions : (string * decision) list;
  groups : string list list;
  runs_full_factorial : int;
  runs_planned : int;
  reps : int;
}

val is_global_factor : Pipeline.t -> string -> bool

val propose : Pipeline.t -> axes:axis list -> reps:int -> plan

val decision_name : decision -> string
val pp_plan : plan Fmt.t
