(** The PIR interpreter with inline dynamic taint analysis — the
    DataFlowSanitizer-instrumented execution of the paper: data-flow
    propagation through every instruction, control-flow taint scoped by
    the branch's immediate postdominator, loop-exit conditions as taint
    sinks, and an extensible host-primitive registry.

    Since the policy split this is {!Engine.Make}[(Taint_policy)] plus
    backward-compatible aliases; {!Plain} and {!Coverage} run the same
    engine under the other policies.  It is the reference side of the
    compile-identity oracle: the pipeline's tainted run executes on
    {!Compiled.Taint}. *)

exception Runtime_error of string

exception Budget_exceeded of int
(** Raised when the [max_steps] instruction budget is exhausted — kept
    distinct from {!Runtime_error} so callers (notably the fuzzing
    oracles and the CLI) can tell a genuinely too-long execution from a
    dynamic error in the program.  The same exception as
    {!Engine.Budget_exceeded}. *)

type config = Engine.config = {
  control_flow_taint : bool;
      (** propagate taint through control dependencies (paper default:
          on; off reproduces plain DFSan for the ablation) *)
  max_steps : int;  (** instruction budget *)
}

val default_config : config

include Engine.S with type pstate = Taint_policy.state
