(** Pretty-printing of PIR in the textual syntax accepted by {!Parser}. *)

val float_literal : float -> string
(** Textual form of a float literal that reparses to the same float with
    the same kind: [nan]/[inf]/[-inf] keywords for non-finite values, a
    precision-preserving decimal otherwise (always containing [.] or an
    exponent so it cannot be read back as an int). *)

val pp_value : Types.value Fmt.t
val pp_operand : Types.operand Fmt.t
val pp_instr : Types.instr Fmt.t
val pp_program : Types.program Fmt.t
val program_to_string : Types.program -> string
