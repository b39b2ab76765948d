(** Core types of the performance intermediate representation (PIR), the
    LLVM-IR stand-in all analyses operate on. *)

type value =
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VArr of int  (** handle into the interpreter heap *)
  | VUnit

type operand =
  | Reg of string
  | Int of int
  | Float of float
  | Bool of bool
  | Unit

type binop =
  | Add | Sub | Mul | Div | Rem
  | FAdd | FSub | FMul | FDiv
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Min | Max | FMin | FMax

type unop = Neg | FNeg | Not | FloatOfInt | IntOfFloat

type instr =
  | Assign of string * operand
  | Binop of string * binop * operand * operand
  | Unop of string * unop * operand
  | Alloc of string * operand
  | Load of string * operand * operand
  | Store of operand * operand * operand
  | Call of string option * string * operand list
  | Prim of string option * string * operand list
      (** host primitive: MPI routines, taint sources, synthetic work *)

type terminator =
  | Jump of string
  | Branch of operand * string * string  (** cond, then, else *)
  | Return of operand

type block = {
  label : string;
  instrs : instr list;
  term : terminator;
}

type func = {
  fname : string;
  fparams : string list;
  blocks : block list;  (** head is the entry block *)
}

type program = {
  pname : string;
  funcs : func list;
  entry : string;
}

exception Ir_error of string

val ir_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

val find_func : program -> string -> func
val find_block : func -> string -> block
val entry_block : func -> block

val instr_uses : instr -> string list
val instr_def : instr -> string option
val term_uses : terminator -> string list
val term_succs : terminator -> string list

val calls_of_instrs : instr list -> string list
val prims_of_instrs : instr list -> string list

val value_kind : value -> string
