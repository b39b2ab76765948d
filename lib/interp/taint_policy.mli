(** The DFSan-style taint policy (paper Section 5.2): shadow registers,
    shadow memory, and postdominator-scoped control-flow taint.
    {!Machine} is the engine instantiated with this policy. *)

include Engine.POLICY with type label = Taint.Label.t
