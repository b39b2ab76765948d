(** Static trip-count analysis: the ScalarEvolution stand-in of the
    compile-time phase (paper Section 5.1).  Recognises the canonical
    counted-loop shape (constant init, constant step, constant bound);
    anything else is conservatively [Unknown]. *)

type trip = Constant of int | Unknown

type loop_summary = {
  ls_func : string;
  ls_header : string;          (** label of the loop header block *)
  ls_depth : int;              (** 1 = outermost *)
  ls_parent : string option;   (** header of the enclosing loop *)
  ls_trip : trip;
}

val analyze_function : Ir.Types.func -> loop_summary list
(** Trip-count summaries for every natural loop of the function. *)

val analyze_program : Ir.Types.program -> loop_summary list
(** {!analyze_function} over every function of the program. *)

val is_constant : trip -> bool

val closed_form : init:int -> step:int -> bound:int -> Ir.Types.binop -> trip
(** Trip count of [for (i = init; i <cmp> bound; i += step)]; [Unknown]
    for unsupported comparison/step combinations. *)
