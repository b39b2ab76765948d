(** The DFSan-style taint policy (paper Section 5.2): shadow registers,
    shadow memory, and postdominator-scoped control-flow taint.
    {!Machine} and {!Compiled.Taint} are the two tiers instantiated with
    this policy. *)

include Engine.POLICY with type label = Taint.Label.t

val live_scopes : fstate -> int
(** The frame's live control scopes: at most one per distinct join. *)
