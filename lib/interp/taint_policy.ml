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

type fstate = {
  slots : Label.t array;  (** shadow registers by {!Fstatic.slots} slot *)
  mutable ctl : (string * Label.t) list;
      (** (join label, condition taint); "$never" join is function-scoped *)
}

let create ~control_flow_taint ~hint =
  { labels = Label.create (); shadow = Shadow.create ~hint ();
    cf = control_flow_taint }

let table s = s.labels

let frame_slots _ n = { slots = Array.make n Label.empty; ctl = [] }
let clean = Label.empty
let is_clean = Label.is_empty

let ctl_taint f =
  List.fold_left (fun acc (_, l) -> Label.union acc l) Label.empty f.ctl

(* Fold the active control scopes into [l] when control-flow tainting is
   enabled — the common suffix of register writes, stores, branch
   dependencies and returns. *)
let with_ctl s f l =
  if s.cf then Label.union l (ctl_taint f) else l

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
  let lmem = Shadow.get s.shadow ~alloc ~offset in
  Label.union_all [ base; index; lmem ]

let on_store s f ~alloc ~offset ~base ~index ~data =
  let l = Label.union_all [ base; index; data ] in
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
let scope_push _ f ~join l = f.ctl <- (join, l) :: f.ctl

(* Pop control-taint scopes that end at this block. *)
let block_enter _ f ~func:_ ~block ~prev:_ =
  f.ctl <- List.filter (fun (join, _) -> join <> block) f.ctl
