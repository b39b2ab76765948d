(** Natural-loop detection and the loop-nesting forest, driving the
    iteration-volume composition of paper Section 4.2. *)

module SMap = Cfg.SMap
module SSet = Cfg.SSet

type loop = {
  header : string;
  body : SSet.t;          (** block labels, header included *)
  latches : string list;  (** back-edge sources *)
  exits : (string * string) list;  (** (inside block, outside successor) *)
  depth : int;            (** 1 = outermost *)
  parent : string option; (** header of the enclosing loop *)
}

type forest = {
  loops : loop list;  (** outermost first *)
  by_header : loop SMap.t;
}

val detect : Cfg.t -> forest
(** Natural loops from back edges; loops sharing a header are merged. *)

val find : forest -> string -> loop option
val children : forest -> string option -> loop list
val innermost_containing : forest -> string -> loop option

val exiting_blocks : loop -> string list
(** Blocks with an edge leaving the loop: the taint sinks of the
    loop-count analysis. *)

val max_depth : forest -> int
