(** The DFSan-style taint policy — the paper's instrumented execution.

    Shadow registers per frame, shadow memory per allocation, and the
    control-taint stack scoped by the branch's immediate postdominator
    (the paper's explicit control-flow tainting extension).  Instantiated
    by {!Machine} and {!Compiled.Taint}; the transfer functions below are
    the exact shadow semantics the monolithic interpreter used to
    inline. *)

module Label = Taint.Label
module Shadow = Taint.Shadow

type state = {
  labels : Label.table;
  shadow : Shadow.t;
  cf : bool;  (** control-flow tainting enabled *)
}

type label = Label.t

(* One live control scope: every tainted branch of the frame whose
   join is [join] since that block was last entered.  "$never" is the
   function-scoped join. *)
type scope = { join : string; mutable cond : Label.t }

type fstate = {
  slots : Label.t array;  (** shadow registers by {!Fstatic.slots} slot *)
  mutable ctl : scope list;  (** live scopes, at most one per join *)
  mutable ctl_label : Label.t;  (** union of the live scopes' [cond] *)
}

let create ~control_flow_taint ~hint =
  { labels = Label.create (); shadow = Shadow.create ~hint ();
    cf = control_flow_taint }

let table s = s.labels

let frame_slots _ n =
  { slots = Array.make n Label.empty; ctl = []; ctl_label = Label.empty }

let clean = Label.empty
let is_clean = Label.is_empty
let live_scopes f = List.length f.ctl

(* Fold the active control scopes into [l] when control-flow tainting is
   enabled — the common suffix of register writes, stores, branch
   dependencies and returns. *)
let with_ctl s f l = if s.cf then Label.union l f.ctl_label else l

let tracks_labels = true
let observes_blocks = true
let read_slot f i = f.slots.(i)
let write_slot s f i l = f.slots.(i) <- with_ctl s f l
let bind_slot f i l = f.slots.(i) <- l
let join2 _ a b = Label.union a b

let on_alloc s ~alloc ~size l =
  Shadow.on_alloc s.shadow ~alloc ~size;
  (* The allocation size's taint flows to the handle. *)
  l

let on_load s ~alloc ~offset ~base ~index =
  Label.union (Label.union base index) (Shadow.get s.shadow ~alloc ~offset)

let on_store s f ~alloc ~offset ~base ~index ~data =
  let l = Label.union (Label.union base index) data in
  Shadow.set s.shadow ~alloc ~offset (with_ctl s f l)

let source s ~param ((v, l) : Ir.Types.value * label) =
  let base = Eval.source_label s.labels param in
  (match v with
  | Ir.Types.VArr h ->
    (* Tainting an array taints every cell. *)
    Shadow.taint_all s.shadow ~alloc:h base
  | _ -> ());
  (v, Label.union l base)

let export _ l = l
let import _ l = l
let export_args _ args = args
let branch_dep s f l = with_ctl s f l
let return_label s f l = with_ctl s f l
let wants_scope s l = s.cf && not (Label.is_empty l)

(* Scopes with one join end together and label join is an idempotent,
   commutative union, so a push onto a live join unions into its scope:
   the union over live scopes is the per-branch stack's, and the list
   stays bounded by the frame's distinct joins instead of growing by one
   scope per tainted loop-exit test.  The walks that run on every
   tainted branch and block arrival are top-level recursions, which
   allocate no closure. *)
let rec join_into join l = function
  | [] -> false
  | sc :: rest ->
    if String.equal sc.join join then begin
      sc.cond <- Label.union sc.cond l;
      true
    end
    else join_into join l rest

let scope_push _ f ~join l =
  if not (join_into join l f.ctl) then f.ctl <- { join; cond = l } :: f.ctl;
  f.ctl_label <- Label.union f.ctl_label l

let rec is_live block = function
  | [] -> false
  | sc :: rest -> String.equal sc.join block || is_live block rest

let rec drop block = function
  | [] -> []
  | sc :: rest ->
    if String.equal sc.join block then rest else sc :: drop block rest

(* Pop the control-taint scope that ends at this block, if any. *)
let block_enter _ f ~func:_ ~block ~prev:_ =
  if is_live block f.ctl then begin
    f.ctl <- drop block f.ctl;
    f.ctl_label <-
      List.fold_left (fun acc sc -> Label.union acc sc.cond) Label.empty f.ctl
  end
