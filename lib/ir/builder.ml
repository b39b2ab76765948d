(** Imperative construction of PIR functions.

    The builder maintains a current block under construction and provides
    structured control-flow helpers ([if_], [while_], [for_]) that emit the
    canonical reducible CFG shapes the static analyses recognise.  All mini
    applications (LULESH, MILC, didactic examples) are written against this
    module. *)

open Types

type t = {
  bname : string;
  bparams : string list;
  mutable done_blocks : block list;  (** finished blocks, reversed *)
  mutable cur_label : string option;
  mutable cur_instrs : instr list;   (** reversed *)
  mutable fresh : int;
  mutable loop_id : int;
}

let create name ~params =
  {
    bname = name;
    bparams = params;
    done_blocks = [];
    cur_label = Some "entry";
    cur_instrs = [];
    fresh = 0;
    loop_id = 0;
  }

let fresh_name b hint =
  b.fresh <- b.fresh + 1;
  Printf.sprintf "%s%d" hint b.fresh

let emit b instr =
  match b.cur_label with
  | None -> ir_error "emit after terminator in %s" b.bname
  | Some _ -> b.cur_instrs <- instr :: b.cur_instrs

let terminate b term =
  match b.cur_label with
  | None -> ir_error "double terminator in %s" b.bname
  | Some label ->
    b.done_blocks <-
      { label; instrs = List.rev b.cur_instrs; term } :: b.done_blocks;
    b.cur_label <- None;
    b.cur_instrs <- []

let start_block b label =
  (match b.cur_label with
  | Some _ -> terminate b (Jump label)
  | None -> ());
  b.cur_label <- Some label;
  b.cur_instrs <- []

let in_block b = b.cur_label <> None

(* -- value helpers ------------------------------------------------------ *)

let binop b op x y =
  let d = fresh_name b "t" in
  emit b (Binop (d, op, x, y));
  Reg d

let unop b op x =
  let d = fresh_name b "t" in
  emit b (Unop (d, op, x));
  Reg d

let add b x y = binop b Add x y
let sub b x y = binop b Sub x y
let mul b x y = binop b Mul x y
let div b x y = binop b Div x y
let rem b x y = binop b Rem x y
let fadd b x y = binop b FAdd x y
let fsub b x y = binop b FSub x y
let fmul b x y = binop b FMul x y
let fdiv b x y = binop b FDiv x y
let eq b x y = binop b Eq x y
let ne b x y = binop b Ne x y
let lt b x y = binop b Lt x y
let le b x y = binop b Le x y
let gt b x y = binop b Gt x y
let ge b x y = binop b Ge x y
let and_ b x y = binop b And x y
let imin b x y = binop b Min x y
let imax b x y = binop b Max x y

(** Bind an operand to a named mutable register. *)
let set b name op = emit b (Assign (name, op))

let alloc b n =
  let d = fresh_name b "arr" in
  emit b (Alloc (d, n));
  Reg d

let load b base idx =
  let d = fresh_name b "v" in
  emit b (Load (d, base, idx));
  Reg d

let store b base idx v = emit b (Store (base, idx, v))

let call b f args =
  let d = fresh_name b "r" in
  emit b (Call (Some d, f, args));
  Reg d

let call_unit b f args = emit b (Call (None, f, args))

let prim b p args =
  let d = fresh_name b "r" in
  emit b (Prim (Some d, p, args));
  Reg d

let prim_unit b p args = emit b (Prim (None, p, args))

(** Synthetic computation of [amount] abstract work units: the stand-in for
    a real kernel's arithmetic.  The interpreter charges it to the current
    function's cost counter. *)
let work b amount = prim_unit b "work" [ amount ]

let ret b op = terminate b (Return op)
let ret_unit b = terminate b (Return Unit)

(* -- structured control flow ------------------------------------------- *)

let if_ b cond ~then_ ?(else_ = fun () -> ()) () =
  let id = fresh_name b "if" in
  let then_l = id ^ ".then" and else_l = id ^ ".else" and join_l = id ^ ".join" in
  terminate b (Branch (cond, then_l, else_l));
  start_block b then_l;
  then_ ();
  if in_block b then terminate b (Jump join_l);
  start_block b else_l;
  else_ ();
  if in_block b then terminate b (Jump join_l);
  start_block b join_l

(** [while_ b ~cond ~body] — [cond] runs in the loop header and returns the
    continuation condition; the exit branch of the generated loop is the
    taint sink for this loop's iteration count. *)
let while_ b ~cond ~body =
  b.loop_id <- b.loop_id + 1;
  let id = Printf.sprintf "%s.loop%d" b.bname b.loop_id in
  let header = id ^ ".header" and body_l = id ^ ".body" and exit_l = id ^ ".exit" in
  start_block b header;
  let c = cond () in
  terminate b (Branch (c, body_l, exit_l));
  start_block b body_l;
  body ();
  if in_block b then terminate b (Jump header);
  start_block b exit_l

(** Canonical counted loop: [for_ b "i" ~from ~below body] iterates
    [i = from; i < below; i += step].  The induction register is named so
    the static trip-count analysis can recognise constant bounds. *)
let for_ b name ~from ~below ?(step = Int 1) body =
  let iv = fresh_name b name in
  set b iv from;
  while_ b
    ~cond:(fun () -> lt b (Reg iv) below)
    ~body:(fun () ->
      body (Reg iv);
      set b iv (add b (Reg iv) step))

(** Loop [count] times without exposing an induction variable. *)
let repeat b count body = for_ b "rep" ~from:(Int 0) ~below:count (fun _ -> body ())

let finish b =
  if in_block b then ret_unit b;
  { fname = b.bname; fparams = b.bparams; blocks = List.rev b.done_blocks }

(** Assemble a program; the entry function's parameters are the program's
    input parameters, bound by the interpreter at startup. *)
let program name ~entry funcs = { pname = name; funcs; entry }

(** Define a function in one shot. *)
let define name ~params f =
  let b = create name ~params in
  f b;
  finish b
