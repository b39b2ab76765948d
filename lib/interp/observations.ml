(** Observation records produced by a tainted run: loop iteration counts
    with their parameter dependencies, branch coverage, primitive-call
    events (MPI), and per-function execution statistics.  These are the
    raw facts the Perf-Taint pipeline post-processes (paper Section 5.2). *)

(** A call path is the stack of function names from the entry function to
    the observed function, entry first. *)
type callpath = string list

let callpath_key (cp : callpath) = String.concat "/" cp

(** Aggregate dynamic facts about one natural loop on one call path. *)
type loop_obs = {
  lo_func : string;
  lo_header : string;          (** label of the loop header block *)
  lo_callpath : callpath;
  lo_depth : int;              (** static nesting depth, 1 = outermost *)
  lo_parent : string option;   (** header of the enclosing loop, if nested *)
  mutable lo_iters : int;      (** total body executions across all entries *)
  mutable lo_entries : int;    (** times the loop was entered from outside *)
  mutable lo_dep : Taint.Label.t;
      (** union of taint labels observed on the loop's exit conditions *)
  mutable lo_enclosing : (string * string) list;
      (** keys [(callpath key, header)] of loops dynamically enclosing this
          one, across function boundaries; drives the multiplicative
          dependency detection of Section 5.2 *)
}

(** Coverage and taint of one conditional branch on one call path. *)
type branch_obs = {
  br_func : string;
  br_block : string;
  br_callpath : callpath;
  mutable br_taken : int;      (** then-edge executions *)
  mutable br_not_taken : int;  (** else-edge executions *)
  mutable br_dep : Taint.Label.t;
}

(** One primitive-call event (MPI routines etc.), with argument taints. *)
type event = {
  ev_func : string;
  ev_callpath : callpath;
  ev_prim : string;
  ev_args : (Ir.Types.value * Taint.Label.t) list;
}

(** Per-function dynamic execution statistics. *)
type func_obs = {
  fo_func : string;
  mutable fo_calls : int;
  mutable fo_instrs : int;  (** instructions executed inside the function *)
  mutable fo_work : int;    (** abstract work units consumed by [work] *)
}

type t = {
  loops : (string * string, loop_obs) Hashtbl.t;
      (** keyed by (callpath key, header) *)
  branches : (string * string, branch_obs) Hashtbl.t;
      (** keyed by (callpath key, block) *)
  mutable events : event list;  (** reversed during execution *)
  funcs : (string, func_obs) Hashtbl.t;
}

let create () =
  {
    loops = Hashtbl.create 64;
    branches = Hashtbl.create 64;
    events = [];
    funcs = Hashtbl.create 32;
  }

let loop_list t = Hashtbl.fold (fun _ v acc -> v :: acc) t.loops []
let branch_list t = Hashtbl.fold (fun _ v acc -> v :: acc) t.branches []
let event_list t = List.rev t.events
let func_list t = Hashtbl.fold (fun _ v acc -> v :: acc) t.funcs []

let func_obs t name =
  match Hashtbl.find_opt t.funcs name with
  | Some fo -> fo
  | None ->
    let fo = { fo_func = name; fo_calls = 0; fo_instrs = 0; fo_work = 0 } in
    Hashtbl.replace t.funcs name fo;
    fo

(** Loops of [t] grouped per function, dependencies merged over call
    paths. *)
let loops_by_function t =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun lo ->
      let key = (lo.lo_func, lo.lo_header) in
      match Hashtbl.find_opt acc key with
      | None -> Hashtbl.replace acc key lo.lo_dep
      | Some dep -> Hashtbl.replace acc key (Taint.Label.union dep lo.lo_dep))
    (loop_list t);
  acc
