(** Evaluation of PIR scalar operations, with dynamic kind checking. *)

exception Runtime_error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Runtime_error} with a formatted message. *)

val source_label : Taint.Label.table -> string -> Taint.Label.t
(** {!Taint.Label.base}, shared by every tier and host runtime.
    @raise Runtime_error naming the source when it would exceed
    {!Taint.Label.max_sources}. *)

val as_int : Ir.Types.value -> int
val as_bool : Ir.Types.value -> bool
val as_arr : Ir.Types.value -> int

val max_alloc_cells : int
(** The most cells one [alloc] may request: 2{^24}, far above anything
    the bundled apps allocate. *)

val alloc_size : Ir.Types.value -> int
(** The size operand of an [alloc], checked on both tiers before anything
    is allocated, shadow memory included.
    @raise Runtime_error naming the size and {!max_alloc_cells} when the
    request exceeds it. *)

val max_call_depth : int
(** The most frames one run may hold, the entry function's included. *)

val call_depth_exceeded : unit -> 'a
(** @raise Runtime_error naming {!max_call_depth}; both tiers raise it
    on entering a frame beyond the limit. *)

val vint : int -> Ir.Types.value
(** [VInt i], shared from a pre-boxed pool for small [i] (values are
    immutable, so sharing is unobservable). *)

val vbool : bool -> Ir.Types.value
(** [VBool b], shared. *)

val binop : Ir.Types.binop -> Ir.Types.value -> Ir.Types.value -> Ir.Types.value
val unop : Ir.Types.unop -> Ir.Types.value -> Ir.Types.value
