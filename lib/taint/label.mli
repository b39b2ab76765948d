(** Taint labels as sets of input parameters.

    DFSan (paper Section 5.2) encodes a label as a 16-bit node of a union
    tree; every analysis in the paper only ever asks which parameters a
    label covers (Section 4).  A label here is that set directly: an
    immediate [int] with one bit per registered taint source, so union is
    [lor] and the empty taint is [0]. *)

type t = private int
(** A set of taint sources, one bit per source in registration order. *)

val empty : t
val is_empty : t -> bool

type table
(** The source registry: at most {!max_sources} names, each owning one
    bit, in registration order. *)

val max_sources : int
(** The number of bits a non-negative [int] offers: 62 on 64-bit hosts. *)

exception Too_many_sources of string
(** Raised by {!base} with the name of a source that would exceed
    {!max_sources}. *)

val create : unit -> table

val base : table -> string -> t
(** [base tbl name] is the singleton label of source [name], registering
    it on first use.
    @raise Too_many_sources when [name] is new and the table is full. *)

val sources : table -> string list
(** Registered source names in registration order. *)

val names : table -> t -> string list
(** Sorted, duplicate-free source names covered by a label. *)

val union : t -> t -> t
val union_all : t list -> t

val has : table -> t -> string -> bool
(** Does the label cover the source with this name? *)

val pp : table -> t Fmt.t

val source_prim : string -> string option
(** [source_prim "taint:size"] is [Some "size"] — the primitive-name
    convention by which PIR programs declare taint sources.  The single
    definition shared by the interpreter policies (which implement the
    pass-through semantics) and the fuzzing oracles (which look for
    marked parameters). *)
