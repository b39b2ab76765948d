(** Differential and metamorphic oracles over PIR programs.

    Every oracle checks a whole [Ir.Types.program], so the same checks
    apply to freshly generated programs and to replayed [.pir] corpus
    files.  Every engine an oracle runs has the simulated MPI world
    ({!Mpi_sim.Runtime.default_world}) installed, so replayed files may
    call MPI routines.  The engine oracles compare or read one record of
    each run — outcome, observations with their label names, step count,
    metric and profiler snapshots, taint sources — under the engine
    configuration {!check} passes them.  Run the oracles through {!check},
    which converts an unexpected exception into a [Fail] — in
    differential testing an escaping exception is a finding, not an
    abort. *)

type verdict = Pass | Fail of string

type t = {
  name : string;
  check : Interp.Machine.config -> Ir.Types.program -> verdict;
      (** the configuration the oracle's engine runs execute under; the
          oracles that run no engine ignore it *)
}

val interp_config : Interp.Machine.config
(** The default oracle configuration, with a 500k-step budget: exhausting
    it is a skip, not a finding — generated loop nests can be exponential
    in depth and a campaign must never hang. *)

val marked_params : Ir.Types.program -> (string * string) list
(** Entry parameters marked as taint sources, as
    [(formal, source name)] pairs — found by scanning the entry function
    for [!taint:<name>(%formal)] primitives (recognized by
    {!Taint.Label.source_prim}, the shared definition). *)

val taint_soundness : t
(** Perturb each marked parameter in turn (3 → 7) and re-execute: any
    loop whose dynamic counts change must carry the parameter in its
    labels (or in a dynamically enclosing loop's).  Loops outside the
    entry function are only required to be labelled when both runs
    entered them equally often, because control taint is function-scoped
    and does not flow into callees.  Under [control_flow_taint = false]
    it catches the ablation as a genuine soundness bug. *)

val printer_roundtrip : t
(** Printing and reparsing must reproduce the program exactly. *)

val validator_interp : t
(** A program the validator accepts must not raise [Runtime_error]
    (budget exhaustion excepted); a generated program the validator
    rejects is equally a finding. *)

val tripcount : t
(** Static [Constant n] trip counts must agree with dynamics:
    [iterations = n * entries] for every observation of the loop. *)

val obs_invariance : t
(** Metamorphic: enabling the [lib/obs] metrics and trace instrumentation
    must not change anything of the run but the metric counters. *)

val taint_vs_plain : t
(** Differential: running through the Taint policy ({!Interp.Machine})
    and the Plain policy ({!Interp.Plain}) must produce the same run with
    every label and the taint-source registry erased — outcome,
    loop/branch/event/function observations, step count. *)

val compile_identity : t
(** Differential: the compiled tier ({!Interp.Compiled}) must be
    bit-identical to the interpreter under every bundled policy —
    outcome (result value and its label, trap messages, budget
    behavior), loop/branch/event/function observations with their
    dependency label names, step counts, metric counters, profiler
    samples, the taint sources in registration order, and the Coverage
    policy's block/edge hit tables. *)

val coverage_consistency : t
(** The Coverage policy's block hit counts must be consistent with the
    engine's own observations: summed over callpaths, a branch block is
    arrived at taken + not-taken times and a loop header
    iterations + entries times. *)

val campaign_identity : t
(** A fault-free {!Measure.Campaign.run} must be bit-identical to
    {!Measure.Experiment.run_design} on an app/design derived
    deterministically from the program's hash. *)

val campaign_recovery : t
(** A campaign under transient crash/hang faults (with enough retries to
    outlast them) must recover every run, and the robust fit
    ({!Model.Search.multi_robust}) of its dataset must select the same
    best model term as the classic fit of the clean campaign. *)

val par_identity : t
(** Parallel-vs-serial bit-identity: the fixture campaign executed on a
    3-worker {!Par.Pool} must produce records identical to the serial
    run, and pooled model-search scoring must select the identical model
    with identical error and candidate count. *)

val shard_identity : t
(** Sharded-vs-single bit-identity: the fixture campaign run by
    {!Measure.Shard.coordinate} over 2–4 in-process journal-writing
    workers must reproduce the serial campaign exactly — records, merged
    journal bytes, [campaign.*] counters, and event stream without the
    supervision events — both on the clean path and with one worker
    killed mid-shard (journal torn mid-line, restarted with resume by
    the coordinator). *)

val serve_identity : t
(** Served-model identity: the fixture campaign's fit, memoized through
    a {!Serve.Catalog} in a temp directory, must come back bit-identical
    to the cold fit — the serialized entry bytes and the model's
    predictions — from the in-memory LRU, from a repeated cold fit, and
    from a fresh catalog reopening the on-disk index (the daemon-restart
    path).  The key binds the generated program's printed text. *)

val all : t list
(** Every oracle, in report order. *)

val check :
  ?config:Interp.Machine.config -> t -> Ir.Types.program -> verdict
(** Exception-safe oracle application; the engine runs execute under
    [config] (default {!interp_config}). *)
