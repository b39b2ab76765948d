(** Control-flow graph of one PIR function: successor/predecessor maps,
    reverse postorder, dominators and postdominators (Cooper–Harvey–
    Kennedy), back edges and irreducibility detection. *)

module SMap : Map.S with type key = string
module SSet : Set.S with type elt = string

type t

val build : Types.func -> t

val successors : t -> string -> string list
val predecessors : t -> string -> string list

val dominates : t -> string -> string -> bool
(** [dominates t a b]: every path from entry to [b] passes [a]
    (reflexive). *)

val ipostdom : t -> string -> string option
(** Immediate postdominator: the join block where control re-converges —
    the scope boundary of control-flow taint.  [None] when only the
    function exit postdominates. *)

val reachable_labels : t -> string list
(** Reverse postorder, entry first. *)

val back_edges : t -> (string * string) list
(** Edges whose target dominates their source; targets are natural-loop
    headers. *)

val irreducible_edges : t -> (string * string) list
(** Retreating edges that are not back edges: irreducible control flow
    (excluded by the paper; detected and reported here). *)
