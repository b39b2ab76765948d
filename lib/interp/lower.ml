(** The lowering pass: one PIR function to its slot-resolved lowered
    form, compiled once at first call and executed by {!Compiled}.

    Lowering resolves every name the interpreter would look up at
    runtime:

    - register names become dense integer {e slots} through
      {!Fstatic.slots}, the assignment the interpreter's shadow
      registers use too, so frames are plain arrays instead of
      string-keyed hash tables;
    - branch and jump targets become block {e indices} into the
      function's deduplicated block array, with the from-inside-the-loop
      test of loop accounting precomputed per edge;
    - callees are resolved to function indices against the program's
      first-wins function table;
    - primitives are classified once ([work] / [print] / taint source /
      registry dispatch).

    Resolution failures are {e lazy}: an unknown callee, block label or
    arity mismatch lowers to a trap carrying the exact exception the
    interpreter would raise, thrown only if that instruction or edge
    actually executes.  A program that never reaches the bad site
    behaves identically under both tiers, and error messages are
    byte-identical when it does. *)

open Ir.Types

(** A lowered operand: a frame slot or a pre-built constant value
    (integers and booleans interned through {!Eval.vint}/{!Eval.vbool};
    values are immutable, so the sharing is unobservable). *)
type lop = LSlot of int | LConst of value

(** The sentinel stored in unbound slots, recognized by physical
    equality.  No program value can alias it: array handles are
    non-negative and every other [VArr] allocation is distinct. *)
let vunset : value = VArr min_int

(** A lowered control-transfer target: a block index plus the
    precomputed does-this-edge-come-from-inside-the-target's-loop flag,
    or a lazy trap for labels the function does not define. *)
type btarget = BGo of int * bool | BTrap of exn

(** A lowered callee: a function index, or a lazy trap (unknown function
    or arity mismatch, with the interpreter's exact message). *)
type callee = CIdx of int | CTrap of exn

(** Primitive classification, mirroring the interpreter's dispatch
    precedence: [work] and [print] builtins, then [taint:<param>]
    sources, then the runtime registry ([PDyn] keeps the name and looks
    the registry up at execution time, because hosts may register
    primitives after compilation). *)
type prim_kind = PWork | PPrint | PSource of string | PDyn

(** Lowered instructions.  Destination slots use [-1] for "no
    destination" (calls and prims in statement position).  The final
    [int] of [LCall] is the call site's dense index within the function
    (see {!lfunc.lnsites}): the executing tier caches per-callpath data
    (resolved callpath keys, observation records) per site. *)
type linstr =
  | LAssign of int * lop
  | LBinop of int * Ir.Types.binop * lop * lop
  | LUnop of int * Ir.Types.unop * lop
  | LAlloc of int * lop
  | LLoad of int * lop * lop
  | LStore of lop * lop * lop
  | LCall of int * callee * lop array * int
  | LPrim of int * prim_kind * string * lop array

type lterm = LReturn of lop | LJump of btarget | LBranch of lop * btarget * btarget

type lblock = {
  lbi : Fstatic.binfo;
      (** the shared static facts of this block: label, loop membership,
          loop exits, control-scope join *)
  linstrs : linstr array;
  lterm : lterm;
  lprev : string option;
      (** [Some] of this block's label: the [prev] its successors pass
          to {!Engine.POLICY.block_enter}, built once here rather than
          on every transition *)
}

type lfunc = {
  lf : Ir.Types.func;  (** the source function (name, parameters) *)
  lnslots : int;
  lsnames : string array;
      (** slot -> register name, for the unset-register diagnostic *)
  lblocks : lblock array;
      (** the function's blocks in program order, duplicate labels
          dropped (first wins, as in {!Fstatic}); entry is index 0 *)
  lnsites : int;  (** number of call sites (dense [LCall] indices) *)
  lstatic : Fstatic.t;
}

(** The instruction layout, one row per lowered opcode — the single
    definition behind the "Lowered IR" table of doc/IR.md (kept in sync
    by a drift test, like {!Engine.instr_counters}). *)
let lowered_ops =
  [
    ("LAssign", "dst slot := operand");
    ("LBinop", "dst slot := binop(operand, operand)");
    ("LUnop", "dst slot := unop(operand)");
    ("LAlloc", "dst slot := fresh array handle, size from operand");
    ("LLoad", "dst slot := heap cell at (base operand, index operand)");
    ("LStore", "heap cell at (base operand, index operand) := operand");
    ("LCall", "invoke a pre-resolved function index, result into dst slot");
    ("LPrim", "invoke a pre-classified primitive, result into dst slot");
    ("LReturn", "return operand to the caller");
    ("LJump", "transfer to a pre-resolved block index");
    ("LBranch", "conditional transfer between two pre-resolved block indices");
  ]

(* -- operands -------------------------------------------------------------- *)

(* Registers resolve through the shared {!Fstatic.slots} table, which
   covers every register of the kept blocks. *)
let lop_of sl = function
  | Reg r -> LSlot (Hashtbl.find sl r)
  | Int i -> LConst (Eval.vint i)
  | Float f -> LConst (VFloat f)
  | Bool b -> LConst (Eval.vbool b)
  | Unit -> LConst VUnit

let dst_of sl = function Some r -> Hashtbl.find sl r | None -> -1

(* -- lowering -------------------------------------------------------------- *)

let unknown_block_trap fname label =
  BTrap (Ir_error (Printf.sprintf "unknown block %s in %s" label fname))

let lower_callee ~resolve fname args_len =
  match resolve fname with
  | None -> CTrap (Ir_error (Printf.sprintf "unknown function %s" fname))
  | Some (idx, (f : Ir.Types.func)) ->
    let formals = List.length f.fparams in
    if formals <> args_len then
      CTrap
        (Eval.Runtime_error
           (Printf.sprintf "arity mismatch calling %s: %d formals, %d actuals"
              fname formals args_len))
    else CIdx idx

let lower_prim name =
  if name = "work" then PWork
  else if name = "print" then PPrint
  else
    match Taint.Label.source_prim name with
    | Some param -> PSource param
    | None -> PDyn

let lower_instr ~resolve sl sites = function
  | Assign (d, a) -> LAssign (Hashtbl.find sl d, lop_of sl a)
  | Binop (d, op, a, b) ->
    LBinop (Hashtbl.find sl d, op, lop_of sl a, lop_of sl b)
  | Unop (d, op, a) -> LUnop (Hashtbl.find sl d, op, lop_of sl a)
  | Alloc (d, n) -> LAlloc (Hashtbl.find sl d, lop_of sl n)
  | Load (d, base, idx) ->
    LLoad (Hashtbl.find sl d, lop_of sl base, lop_of sl idx)
  | Store (base, idx, x) -> LStore (lop_of sl base, lop_of sl idx, lop_of sl x)
  | Call (d, fname, args) ->
    let args = Array.of_list (List.map (lop_of sl) args) in
    let site = !sites in
    incr sites;
    LCall
      (dst_of sl d, lower_callee ~resolve fname (Array.length args), args, site)
  | Prim (d, p, args) ->
    let args = Array.of_list (List.map (lop_of sl) args) in
    LPrim (dst_of sl d, lower_prim p, p, args)

(** Lower one function against [static] (its shared block-resolution
    facts).  [resolve] maps a callee name to its index in the program's
    first-wins function table together with its definition (for the
    arity check); it is total over defined functions and [None]
    otherwise. *)
let func ~resolve (f : Ir.Types.func) (static : Fstatic.t) =
  let sl, names = Fstatic.slots f static in
  let sites = ref 0 in
  let kept = static.Fstatic.border in
  let index_of = Hashtbl.create (Array.length kept * 2) in
  Array.iteri
    (fun i (bi : Fstatic.binfo) ->
      Hashtbl.add index_of bi.Fstatic.blk.label i)
    kept;
  (* Resolve an edge from [src] to label [l]: block index plus the
     static from-inside test of the target's loop (the target's loop
     body containing the source block). *)
  let target_of (src : Ir.Types.block) l =
    match Hashtbl.find_opt index_of l with
    | None -> unknown_block_trap f.fname l
    | Some i ->
      let from_inside =
        match kept.(i).Fstatic.bloop with
        | Some loop -> Ir.Cfg.SSet.mem src.label loop.Ir.Loops.body
        | None -> false
      in
      BGo (i, from_inside)
  in
  let lower_block (bi : Fstatic.binfo) =
    let b = bi.Fstatic.blk in
    let linstrs =
      Array.of_list (List.map (lower_instr ~resolve sl sites) b.instrs)
    in
    let lterm =
      match b.term with
      | Return op -> LReturn (lop_of sl op)
      | Jump l -> LJump (target_of b l)
      | Branch (c, then_l, else_l) ->
        let c = lop_of sl c in
        LBranch (c, target_of b then_l, target_of b else_l)
    in
    { lbi = bi; linstrs; lterm; lprev = Some b.label }
  in
  let lblocks = Array.map lower_block kept in
  {
    lf = f;
    lnslots = Array.length names;
    lsnames = names;
    lblocks;
    lnsites = !sites;
    lstatic = static;
  }
