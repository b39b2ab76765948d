(** Shadow memory: the taint label attached to every program memory cell,
    kept as a parallel label array per heap allocation (a flat growable
    table indexed by the dense allocation handle). *)

type t

val create : ?hint:int -> unit -> t
(** [hint] presizes the per-allocation table; purely a capacity hint. *)

val on_alloc : t -> alloc:int -> size:int -> unit
(** Register a fresh allocation; all cells start untainted. *)

val get : t -> alloc:int -> offset:int -> Label.t
(** Label of a cell; empty for unknown allocations or out-of-range
    offsets. *)

val set : t -> alloc:int -> offset:int -> Label.t -> unit
(** Write a cell's label; silently ignores unknown/out-of-range targets. *)

val taint_all : t -> alloc:int -> Label.t -> unit
(** Taint every cell of an allocation (whole-buffer taint sources). *)
