(** Observation records produced by a tainted run (paper Section 5.2):
    loop iteration counts with parameter dependencies, branch coverage,
    primitive-call events, per-function execution statistics. *)

type callpath = string list
(** Stack of function names from the entry function, entry first. *)

val callpath_key : callpath -> string

type loop_obs = {
  lo_func : string;
  lo_header : string;
  lo_callpath : callpath;
  lo_depth : int;
  lo_parent : string option;
  mutable lo_iters : int;    (** total body executions *)
  mutable lo_entries : int;  (** entries from outside the loop *)
  mutable lo_dep : Taint.Label.t;
      (** union of exit-condition labels: the loop-count parameters *)
  mutable lo_enclosing : (string * string) list;
      (** observation keys of dynamically enclosing loops, across calls *)
}

type branch_obs = {
  br_func : string;
  br_block : string;
  br_callpath : callpath;
  mutable br_taken : int;
  mutable br_not_taken : int;
  mutable br_dep : Taint.Label.t;
}

type event = {
  ev_func : string;
  ev_callpath : callpath;
  ev_prim : string;
  ev_args : (Ir.Types.value * Taint.Label.t) list;
}

type func_obs = {
  fo_func : string;
  mutable fo_calls : int;
  mutable fo_instrs : int;
  mutable fo_work : int;
}

type t = {
  loops : (string * string, loop_obs) Hashtbl.t;
      (** keyed by (callpath key, header) *)
  branches : (string * string, branch_obs) Hashtbl.t;
      (** keyed by (callpath key, block) *)
  mutable events : event list;  (** reversed during execution *)
  funcs : (string, func_obs) Hashtbl.t;
}

val create : unit -> t

val loop_list : t -> loop_obs list
val branch_list : t -> branch_obs list
val event_list : t -> event list
val func_list : t -> func_obs list

val func_obs : t -> string -> func_obs
(** Fetch-or-create the statistics record of a function. *)

val loops_by_function : t -> (string * string, Taint.Label.t) Hashtbl.t
(** Loop dependencies merged over call paths, keyed (function, header). *)
