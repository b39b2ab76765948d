(** The no-analysis policy: clean execution with zero shadow bookkeeping
    (every transfer function is a no-op producing {!Taint.Label.empty}).
    {!Compiled.Plain}, the compiled tier under this policy, is the fast
    replay substrate for {!Measure}; {!Plain}, the interpreter under it,
    is the reference side of the taint-vs-plain differential fuzzing
    oracle. *)

include Engine.POLICY with type label = Taint.Label.t
