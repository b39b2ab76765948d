(** The policy-parameterized PIR execution engine.

    One execution substrate, many analyses: the engine owns program
    values, the heap, call frames, loop/branch/function observations,
    instruction metrics, tracing and the step budget, while an analysis
    {e policy} supplies everything shadow-related — the per-value shadow
    state, the transfer functions per instruction class, the branch hook
    and the control-scope discipline.

    This is the architectural split the paper's economy rests on
    (Section 5.2): {e one} instrumented tainted run, {e many} clean
    measurement runs.  {!Machine} instantiates the engine with the
    DFSan-style {!Taint_policy}; {!Plain} runs the same programs with
    zero shadow bookkeeping; {!Coverage} counts block and edge
    executions.  All three produce identical program results and
    identical observations modulo taint labels.

    {!Make} is the tree-walking reference interpreter.  {!Compiled.Make}
    runs the same policies over lowered code and is the only executor
    outside the tests and the fuzz oracles; the [compile_identity]
    oracle holds the two bit-identical. *)

exception Budget_exceeded of int
(** Raised when the [max_steps] instruction budget is exhausted — kept
    distinct from {!Eval.Runtime_error} so callers (notably the fuzzing
    oracles and the CLI) can tell a genuinely too-long execution from a
    dynamic error in the program. *)

type config = {
  control_flow_taint : bool;
      (** propagate taint through control dependencies (paper default:
          on; off reproduces plain DFSan for the ablation).  Only the
          Taint policy reads it. *)
  max_steps : int;  (** instruction budget; guards against runaway loops *)
}

val default_config : config

val instr_counters : (string * string) list
(** The per-instruction metric names the engine registers when a metrics
    registry is attached, with a one-line meaning each.  This list is the
    single definition behind both the engine's pre-interned counters and
    the counter table of [doc/OBSERVABILITY.md] (kept in sync by a test),
    so the documentation cannot drift from the implementation. *)

(** An analysis policy: the shadow semantics layered over one execution
    of the program.  [label] is the shadow of one value, [fstate] the
    per-frame shadow context (e.g. the control-taint stack), [state] the
    whole-run analysis state (e.g. the label table and shadow memory). *)
module type POLICY = sig
  val tracks_labels : bool
  (** Whether slot labels carry information.  [false] promises that
      {!read_slot}/{!write_slot}/{!bind_slot}, {!join2}, {!on_alloc},
      {!on_load}, {!on_store}, {!branch_dep} and {!return_label} are
      pure no-ops whose every result is {!clean} (with [export clean =
      Taint.Label.empty]), and that {!wants_scope} is constant [false].
      The compiled tier specializes on it, skipping the label plumbing
      altogether; the interpreter always calls the hooks, so the promise
      is cross-checked by the differential oracle. *)

  val observes_blocks : bool
  (** Whether {!block_enter} has observable effects ([false] lets a
      tier skip the call — true of the Plain policy only). *)

  type state
  type label
  type fstate

  val create : control_flow_taint:bool -> hint:int -> state
  (** [hint] is a program-size proxy (static instruction count) for
      presizing policy tables; it must not affect semantics. *)

  val table : state -> Taint.Label.table
  (** The label table backing {!export}/{!import}; policies without
      labels return a private empty table. *)

  val clean : label
  (** Shadow of literals and of values without dependencies. *)

  val is_clean : label -> bool

  val frame_slots : state -> int -> fstate
  (** Fresh per-frame context, built at every function call.  Both tiers
      address the frame's registers as [n] dense slots, numbered by
      {!Fstatic.slots}. *)

  val read_slot : fstate -> int -> label
  val write_slot : state -> fstate -> int -> label -> unit
  (** Record a register write; the Taint policy folds the active control
      scopes into the written label here. *)

  val bind_slot : fstate -> int -> label -> unit
  (** Bind a formal parameter at call entry (no control-scope fold). *)

  val join2 : state -> label -> label -> label
  (** Transfer function of two-operand ALU instructions. *)

  val on_alloc : state -> alloc:int -> size:int -> label -> label
  (** Register a fresh allocation; receives the size operand's label and
      returns the label of the array handle. *)

  val on_load :
    state -> alloc:int -> offset:int -> base:label -> index:label -> label

  val on_store :
    state -> fstate -> alloc:int -> offset:int -> base:label -> index:label ->
    data:label -> unit

  val source : state -> param:string -> Ir.Types.value * label ->
    Ir.Types.value * label
  (** Semantics of the [taint:<param>] pass-through source primitive. *)

  val export : state -> label -> Taint.Label.t
  (** Project a policy label into the shared observation/label-table
      domain (identity for Taint, the empty label otherwise). *)

  val import : state -> Taint.Label.t -> label
  (** Inject a host-primitive result label into the policy domain. *)

  val export_args :
    state -> (Ir.Types.value * label) list ->
    (Ir.Types.value * Taint.Label.t) list
  (** Batch {!export} of evaluated primitive arguments; the Taint policy
      returns the list physically unchanged. *)

  val branch_dep : state -> fstate -> label -> label
  (** Dependency recorded for a conditional branch (and for the loop-exit
      sinks on the same block): condition label plus control context. *)

  val return_label : state -> fstate -> label -> label

  val wants_scope : state -> label -> bool
  (** Should the engine resolve the branch's immediate postdominator and
      open a control scope for this condition label? *)

  val scope_push : state -> fstate -> join:string -> label -> unit

  val block_enter :
    state -> fstate -> func:string -> block:string -> prev:string option ->
    unit
  (** Called on every block arrival, before loop accounting: the Taint
      policy pops control scopes whose join this block is; the Coverage
      policy counts blocks and edges. *)
end

(** The prim-registration face of an engine instance — what host-runtime
    layers (the MPI simulation) need, independent of the policy. *)
module type HOST = sig
  type t
  type frame

  type prim_fn =
    t -> frame -> (Ir.Types.value * Taint.Label.t) list ->
    Ir.Types.value * Taint.Label.t
  (** A host primitive: receives evaluated arguments with their exported
      labels and returns the result value and label (imported back into
      the policy domain by the engine). *)

  val register_prim : t -> string -> prim_fn -> unit
  val label_table : t -> Taint.Label.table
end

(** An instantiated engine. *)
module type S = sig
  type pstate
  (** The policy's whole-run analysis state. *)

  include HOST

  val create :
    ?config:config -> ?metrics:Obs_metrics.t -> ?trace:Obs_trace.sink ->
    ?profile:Obs_profile.t -> Ir.Types.program -> t
  (** [profile] attaches a deterministic sampling profiler: every
      [interval] executed steps the current call stack is credited with
      one sample.  Sampling is driven by the step count, never wall
      time, so profiles are bit-identical across runs. *)

  val run : t -> Ir.Types.value list -> Ir.Types.value * Taint.Label.t
  (** Execute the entry function with positional arguments.
      @raise Eval.Runtime_error on dynamic errors.
      @raise Budget_exceeded when [max_steps] instructions were executed. *)

  val run_named :
    t -> (string * Ir.Types.value) list -> Ir.Types.value * Taint.Label.t

  val observations : t -> Observations.t
  val steps_executed : t -> int

  val policy_state : t -> pstate
  (** Direct access to the policy's analysis state (e.g. the Coverage
      policy's block/edge counters). *)
end

(** The reference interpreter: register values in a name-keyed table,
    shadow registers in the policy's {!Fstatic.slots}-numbered frame,
    dispatch on the IR tree. *)
module Make (P : POLICY) : S with type pstate = P.state
