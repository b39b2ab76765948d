(** Dynamic observation recording shared by the interpreted and compiled
    execution tiers: find-or-create of loop and branch records, the
    arrival/taken counters, the enclosing-loop context merge, and the
    loop-exit taint sink.

    Both tiers call exactly these functions in the same order, so loop,
    branch and dependency observations cannot drift between them. *)

module Obs = Observations
module Label = Taint.Label

let loop_obs (obs : Obs.t) ~cp_key ~func ~header ~callpath ~depth ~parent =
  let key = (cp_key, header) in
  match Hashtbl.find_opt obs.Obs.loops key with
  | Some lo -> lo
  | None ->
    let lo =
      {
        Obs.lo_func = func;
        lo_header = header;
        lo_callpath = callpath;
        lo_depth = depth;
        lo_parent = parent;
        lo_iters = 0;
        lo_entries = 0;
        lo_dep = Label.empty;
        lo_enclosing = [];
      }
    in
    Hashtbl.replace obs.Obs.loops key lo;
    lo

let record_arrival (lo : Obs.loop_obs) ~from_inside =
  if from_inside then lo.Obs.lo_iters <- lo.Obs.lo_iters + 1
  else lo.Obs.lo_entries <- lo.Obs.lo_entries + 1

(** Merge the dynamically enclosing loop keys (this frame's active loops
    minus the loop itself, then the caller chain's) into
    [lo.lo_enclosing], preserving first-seen order. *)
let merge_enclosing (lo : Obs.loop_obs) ~self ~active ~enclosing =
  let ctx = List.filter (fun k -> k <> self) active @ enclosing in
  List.iter
    (fun k ->
      if not (List.mem k lo.Obs.lo_enclosing) then
        lo.Obs.lo_enclosing <- k :: lo.Obs.lo_enclosing)
    ctx

let branch_obs (obs : Obs.t) ~cp_key ~func ~block ~callpath =
  let key = (cp_key, block) in
  match Hashtbl.find_opt obs.Obs.branches key with
  | Some bo -> bo
  | None ->
    let bo =
      {
        Obs.br_func = func;
        br_block = block;
        br_callpath = callpath;
        br_taken = 0;
        br_not_taken = 0;
        br_dep = Label.empty;
      }
    in
    Hashtbl.replace obs.Obs.branches key bo;
    bo

let record_branch (bo : Obs.branch_obs) ~dep ~taken =
  if taken then bo.Obs.br_taken <- bo.Obs.br_taken + 1
  else bo.Obs.br_not_taken <- bo.Obs.br_not_taken + 1;
  bo.Obs.br_dep <- Label.union bo.Obs.br_dep dep

(** The record of the loop headed by [header] on callpath [cp_key], if a
    frame on that callpath has arrived at the header yet. *)
let find_loop (obs : Obs.t) ~cp_key header =
  Hashtbl.find_opt obs.Obs.loops (cp_key, header)

(** The loop-exit taint sink on one loop record: union [dep] into its
    recorded dependency. *)
let sink (lo : Obs.loop_obs) dep = lo.Obs.lo_dep <- Label.union lo.Obs.lo_dep dep

(** Sink [dep] into every loop in [exits] (the loops for which the
    current block is an exiting block).  Loops never yet entered have no
    record and are skipped, exactly as in the historical interpreter.
    The compiled tier runs the same {!find_loop} and {!sink} with each
    found record cached per callpath and block. *)
let loop_sink (obs : Obs.t) ~cp_key exits dep =
  (* A clean dependency cannot change a record: skip the lookups. *)
  if not (Label.is_empty dep) then
    List.iter
      (fun (l : Ir.Loops.loop) ->
        match find_loop obs ~cp_key l.Ir.Loops.header with
        | Some lo -> sink lo dep
        | None -> ())
      exits
