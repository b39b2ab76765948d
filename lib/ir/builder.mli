(** Imperative construction of PIR functions, with structured control-flow
    helpers that emit the canonical reducible shapes the static analyses
    recognise. *)

open Types

type t
(** A function under construction. *)

val create : string -> params:string list -> t
val fresh_name : t -> string -> string

val emit : t -> instr -> unit
(** @raise Ir_error when the current block is already terminated. *)

val terminate : t -> terminator -> unit
val start_block : t -> string -> unit
val in_block : t -> bool

(** {1 Value helpers} — each emits one instruction into a fresh register
    and returns the register as an operand. *)

val binop : t -> binop -> operand -> operand -> operand
val unop : t -> unop -> operand -> operand

val add : t -> operand -> operand -> operand
val sub : t -> operand -> operand -> operand
val mul : t -> operand -> operand -> operand
val div : t -> operand -> operand -> operand
val rem : t -> operand -> operand -> operand
val fadd : t -> operand -> operand -> operand
val fsub : t -> operand -> operand -> operand
val fmul : t -> operand -> operand -> operand
val fdiv : t -> operand -> operand -> operand
val eq : t -> operand -> operand -> operand
val ne : t -> operand -> operand -> operand
val lt : t -> operand -> operand -> operand
val le : t -> operand -> operand -> operand
val gt : t -> operand -> operand -> operand
val ge : t -> operand -> operand -> operand
val and_ : t -> operand -> operand -> operand
val imin : t -> operand -> operand -> operand
val imax : t -> operand -> operand -> operand

val set : t -> string -> operand -> unit
(** Bind an operand to a named mutable register. *)

val alloc : t -> operand -> operand
val load : t -> operand -> operand -> operand
val store : t -> operand -> operand -> operand -> unit

val call : t -> string -> operand list -> operand
val call_unit : t -> string -> operand list -> unit
val prim : t -> string -> operand list -> operand
val prim_unit : t -> string -> operand list -> unit

val work : t -> operand -> unit
(** Consume abstract work units (the stand-in for kernel arithmetic). *)

val ret : t -> operand -> unit
val ret_unit : t -> unit

(** {1 Structured control flow} *)

val if_ :
  t -> operand -> then_:(unit -> unit) -> ?else_:(unit -> unit) -> unit -> unit

val while_ : t -> cond:(unit -> operand) -> body:(unit -> unit) -> unit
(** [cond] runs in the loop header; the generated exit branch is the taint
    sink for the loop's iteration count. *)

val for_ :
  t -> string -> from:operand -> below:operand -> ?step:operand ->
  (operand -> unit) -> unit
(** Canonical counted loop [i = from; i < below; i += step]; the induction
    register is recognisable by the static trip-count analysis. *)

val repeat : t -> operand -> (unit -> unit) -> unit

val finish : t -> func
(** Seal the builder (an unterminated current block returns unit). *)

val define : string -> params:string list -> (t -> unit) -> func
val program : string -> entry:string -> func list -> program
