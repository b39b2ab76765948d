(** The coverage policy: block and edge hit counts over a clean run
    (no shadow state; the only active hook is block entry).
    {!Coverage} and {!Compiled.Coverage} are the two tiers instantiated
    with this policy; read the counts back through [policy_state] and
    the accessors below. *)

include Engine.POLICY with type label = unit

val block_hits : state -> ((string * string) * int) list
(** Sorted ((function, block), dynamic arrivals) pairs. *)

val edge_hits : state -> ((string * string * string) * int) list
(** Sorted ((function, predecessor, block), traversals) pairs; edges are
    intra-function — calls do not create edges. *)

val blocks_covered : state -> int
val edges_covered : state -> int

val hits_of : state -> func:string -> block:string -> int
(** Arrivals at one block; 0 when never executed. *)
