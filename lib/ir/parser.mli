(** Parser for the textual PIR syntax produced by {!Pp} (round-trip
    guaranteed by the test suite). *)

exception Parse_error of { line : int; message : string }

val parse : ?name:string -> string -> Types.program
(** Parse a program.  The [; program <name> (entry @<f>)] header comment
    sets the program name and entry function; otherwise [?name] (default
    ["program"]) and ["main"] apply. *)

val parse_file : string -> Types.program
(** Parse a [.pir] file; the program name defaults to the basename. *)
