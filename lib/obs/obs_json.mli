(** The JSON string escaping shared by every JSON writer in the tree. *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes:
    quote, backslash and control characters escaped, every other byte
    copied unchanged. *)
