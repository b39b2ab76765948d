(** Static trip-count analysis: the stand-in for LLVM's ScalarEvolution
    query used in the paper's compile-time phase (Section 5.1).

    The analysis recognises the canonical counted-loop shape emitted by
    [Ir.Builder.for_]: an induction register initialised to a constant
    before the loop, updated by a constant step inside the loop, compared
    against a constant bound in the header.  Anything else is [Unknown],
    which is the conservative answer — the loop may depend on program
    parameters and stays in the dynamic analysis. *)

open Ir.Types
module SSet = Ir.Cfg.SSet

type trip = Constant of int | Unknown

type loop_summary = {
  ls_func : string;
  ls_header : string;
  ls_depth : int;
  ls_parent : string option;
  ls_trip : trip;
}

(* All static definitions of each register: (block label, rhs sketch). *)
type def = { in_block : string; rhs : instr }

let collect_defs f =
  let defs : (string, def list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match instr_def i with
          | Some d ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt defs d) in
            Hashtbl.replace defs d ({ in_block = b.label; rhs = i } :: cur)
          | None -> ())
        b.instrs)
    f.blocks;
  defs

(* Resolve an operand to a compile-time integer constant by following
   single-assignment copy/arithmetic chains.  [visited] breaks cycles. *)
let rec const_of_operand defs visited = function
  | Int k -> Some k
  | Reg r -> const_of_reg defs visited r
  | Float _ | Bool _ | Unit -> None

and const_of_reg defs visited r =
  if SSet.mem r visited then None
  else
    match Hashtbl.find_opt defs r with
    | Some [ { rhs; _ } ] -> (
      let visited = SSet.add r visited in
      match rhs with
      | Assign (_, op) -> const_of_operand defs visited op
      | Binop (_, op, a, b) -> (
        match
          (const_of_operand defs visited a, const_of_operand defs visited b)
        with
        | Some x, Some y -> (
          match op with
          | Add -> Some (x + y)
          | Sub -> Some (x - y)
          | Mul -> Some (x * y)
          | Div when y <> 0 -> Some (x / y)
          | Min -> Some (min x y)
          | Max -> Some (max x y)
          | _ -> None)
        | _ -> None)
      | Unop (_, Neg, a) ->
        Option.map (fun x -> -x) (const_of_operand defs visited a)
      | _ -> None)
    | Some _ | None -> None

(* Is [op] (possibly through copies) an increment of register [iv] by a
   constant?  Returns the step. *)
let rec step_of defs visited iv = function
  | Reg r when r = iv -> None (* i := i is not an increment *)
  | Reg r -> (
    if SSet.mem r visited then None
    else
      match Hashtbl.find_opt defs r with
      | Some [ { rhs; _ } ] -> (
        let visited = SSet.add r visited in
        match rhs with
        | Assign (_, op) -> step_of defs visited iv op
        | Binop (_, Add, Reg a, b) when a = iv ->
          const_of_operand defs visited b
        | Binop (_, Add, b, Reg a) when a = iv ->
          const_of_operand defs visited b
        | Binop (_, Sub, Reg a, b) when a = iv ->
          Option.map (fun k -> -k) (const_of_operand defs visited b)
        | _ -> None)
      | Some _ | None -> None)
  | Int _ | Float _ | Bool _ | Unit -> None

(* Trip count of [iv] from [init], stepping by [step], while compared
   [cmp]-against [bound] keeps the loop running. *)
let closed_form ~init ~step ~bound cmp =
  if step = 0 then Unknown
  else
    let count upper_exclusive =
      if step > 0 then
        if init >= upper_exclusive then Constant 0
        else Constant ((upper_exclusive - init + step - 1) / step)
      else Unknown
    in
    let count_down lower_exclusive =
      if step < 0 then
        if init <= lower_exclusive then Constant 0
        else Constant ((init - lower_exclusive + -step - 1) / -step)
      else Unknown
    in
    match cmp with
    | Lt -> count bound
    | Le -> count (bound + 1)
    | Gt -> count_down bound
    | Ge -> count_down (bound - 1)
    | _ -> Unknown

(* Find the comparison feeding the exit branch of [loop]'s header and try
   to reduce it to a closed-form trip count. *)
let analyze_loop f defs (cfg : Ir.Cfg.t) (loop : Ir.Loops.loop) =
  ignore cfg;
  let header = find_block f loop.Ir.Loops.header in
  let body = loop.Ir.Loops.body in
  match header.term with
  | Branch (Reg c, _, _) -> (
    match Hashtbl.find_opt defs c with
    | Some [ { rhs = Binop (_, ((Lt | Le | Gt | Ge) as cmp), Reg iv, bound); _ } ]
      -> (
      (* Induction register: one constant def outside the body, one
         constant-step def inside. *)
      match Hashtbl.find_opt defs iv with
      | Some [ d1; d2 ] -> (
        let outside, inside =
          if SSet.mem d1.in_block body then (d2, d1) else (d1, d2)
        in
        if SSet.mem outside.in_block body || not (SSet.mem inside.in_block body)
        then Unknown
        else
          let init =
            match outside.rhs with
            | Assign (_, op) -> const_of_operand defs SSet.empty op
            | _ -> None
          in
          let step =
            match inside.rhs with
            | Assign (_, op) -> step_of defs (SSet.singleton iv) iv op
            | Binop (_, Add, Reg a, b) when a = iv ->
              const_of_operand defs SSet.empty b
            | _ -> None
          in
          let bound = const_of_operand defs SSet.empty bound in
          match (init, step, bound) with
          | Some init, Some step, Some bound -> closed_form ~init ~step ~bound cmp
          | _ -> Unknown)
      | Some _ | None -> Unknown)
    | Some _ | None -> Unknown)
  | Branch _ | Jump _ | Return _ -> Unknown

(** Trip-count summaries for every natural loop of [f]. *)
let analyze_function f =
  let cfg = Ir.Cfg.build f in
  let forest = Ir.Loops.detect cfg in
  let defs = collect_defs f in
  List.map
    (fun (l : Ir.Loops.loop) ->
      {
        ls_func = f.fname;
        ls_header = l.Ir.Loops.header;
        ls_depth = l.Ir.Loops.depth;
        ls_parent = l.Ir.Loops.parent;
        ls_trip = analyze_loop f defs cfg l;
      })
    forest.Ir.Loops.loops

(** Trip-count summaries for every loop of every function — the static
    side of the fuzzer's static-vs-dynamic iteration-count oracle. *)
let analyze_program (p : program) = List.concat_map analyze_function p.funcs

let is_constant = function Constant _ -> true | Unknown -> false
