(** Shared construction helpers for the mini applications. *)

open Ir.Types

val register : Ir.Builder.t -> string -> operand -> operand
(** The paper's [register_variable] one-liner: returns the operand carrying
    the parameter's base taint label. *)

val comm_size : Ir.Builder.t -> operand
val comm_rank : Ir.Builder.t -> operand
val allreduce : Ir.Builder.t -> operand -> unit
val barrier : Ir.Builder.t -> unit
val isend : Ir.Builder.t -> operand -> unit
val irecv : Ir.Builder.t -> operand -> unit
val wait : Ir.Builder.t -> unit
val send : Ir.Builder.t -> operand -> unit
val bcast : Ir.Builder.t -> operand -> unit
val allgather : Ir.Builder.t -> operand -> unit

val leaf_helper : ?units:int -> string -> func
(** A loop-free constant helper (C++ accessor). *)

val const_loop_helper : ?trip:int -> ?units:int -> string -> func
(** A helper with one constant-trip loop (statically prunable). *)

val elem_kernel : ?units:int -> ?callees:string list -> string -> func
(** [for i < n] kernel calling [callees] once per element. *)

val names : func list -> string list
