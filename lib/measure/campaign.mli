(** Resilient measurement campaigns: an {!Experiment.design} executed
    under a {!Fault.plan} with retries, exponential backoff, a JSON-lines
    checkpoint journal, and a campaign report.

    Under {!Fault.none} the executor performs exactly the
    [Simulator.measure] calls of {!Experiment.run_design}, in the same
    order with the same arguments — the produced run list is
    bit-identical (a fuzz oracle enforces this). *)

type retry = {
  rt_max_attempts : int;     (** total attempts per coordinate, >= 1 *)
  rt_backoff_s : float;      (** backoff before the first retry, seconds *)
  rt_backoff_mult : float;   (** exponential backoff multiplier *)
  rt_hang_timeout_s : float; (** wall time a hung run burns before the kill *)
}

val default_retry : retry
(** 3 attempts, 30 s initial backoff doubling, 300 s hang timeout. *)

type outcome =
  | Completed of Simulator.run
  | Abandoned of string  (** fault kind that exhausted the attempts *)

type record = {
  rc_params : Spec.params;
  rc_rep : int;
  rc_attempts : int;        (** attempts consumed, >= 1 *)
  rc_faults : string list;  (** fault kind per faulty attempt, in order *)
  rc_wasted_s : float;      (** wall seconds burned by failed attempts *)
  rc_backoff_s : float;     (** wall seconds spent backing off *)
  rc_outcome : outcome;
}

type report = {
  cp_records : record list;       (** design order *)
  cp_runs : Simulator.run list;   (** completed runs only, design order *)
  cp_attempts : int;
  cp_retries : int;
  cp_faults : (string * int) list;  (** per {!Fault.kind_names}, all four *)
  cp_abandoned : int;
  cp_resumed : int;               (** coordinates restored from a journal *)
  cp_interrupted : bool;          (** stopped early by [limit] *)
  cp_wasted_core_hours : float;
  cp_backoff_core_hours : float;
}

val counters : (string * string) list
(** The [campaign.*] counter vocabulary (name, meaning) — kept in sync
    with doc/OBSERVABILITY.md by a drift test. *)

val event_names : (string * string) list
(** The [campaign.*] structured-event vocabulary (name, meaning) — kept
    in sync with doc/OBSERVABILITY.md by a drift test. *)

val coordinates : Experiment.design -> (Spec.params * int) list
(** The design's run coordinates in execution order (configurations in
    grid order, repetitions innermost) — {!Experiment.run_design}'s
    iteration order. *)

val summarize : resumed:int -> interrupted:bool -> record list -> report
(** Roll a record list (in design order) up into a report — the same
    aggregation {!run} performs on its own records.  The shard merge
    uses this to report on records reassembled from worker journals. *)

val replay_metrics : Obs_metrics.t -> record -> unit
(** Count one finished record in the [campaign.*] counters:
    [rc_attempts] attempts, one retry per non-final attempt, one fault
    per [rc_faults] entry, one abandonment if abandoned.  This is the one
    place a record is counted — {!run} calls it for every record it
    executes, the shard merge for every merged record — and it interns
    the whole {!counters} vocabulary, at zero when nothing was hit. *)

val record_events : Obs_events.sink -> record -> unit
(** Emit the [campaign.fault] events and the [campaign.record] event of
    a finished record, exactly as the executor does — replaying merged
    records through this in design order reproduces the serial stream. *)

val check_design : retry:retry -> Experiment.design -> unit
(** The entry check of {!run} and {!run_journaled}, callable on its own
    before any side effect (a journal, a shard worker).
    @raise Invalid_argument naming the offending [retry] or design
    field; see {!run}. *)

val run :
  ?pool:Par.Pool.t ->
  ?metrics:Obs_metrics.t ->
  ?trace:Obs_trace.sink ->
  ?events:Obs_events.sink ->
  ?plan:Fault.plan ->
  ?retry:retry ->
  ?done_:record list ->
  ?keep:(Spec.params -> int -> bool) ->
  ?limit:int ->
  ?on_record:(record -> unit) ->
  Spec.app -> Mpi_sim.Machine.t -> Experiment.design -> report
(** Execute the design under the fault plan.  [done_] records are
    restored verbatim instead of re-executed (checkpoint resume);
    [keep params rep] narrows the walk to the coordinates it accepts
    (shard workers pass {!Shard.owns}; the default keeps everything);
    [limit] stops after that many {e newly executed} coordinates and
    marks the report interrupted; [on_record] fires after each new
    coordinate finishes (journal writers hook here).  A hung attempt
    fails after burning [rt_hang_timeout_s].

    [events] receives the structured {!event_names} stream.  Record,
    fault and resume events are derived from each finished record and
    emitted on the submitting domain in design order, so the stream is
    deterministic; [campaign.wave] events appear only above one job.

    [pool] (default {!Par.Pool.serial}) executes coordinates in waves of
    {!Par.Pool.wave} fresh coordinates.  Records, journals and metric
    registries are the same at every job count: results are collected in
    design order, every shared effect ([on_record], metrics, events)
    happens on the submitting domain in design order, and
    faults/noise are deterministic per coordinate.  A kill loses at most
    the in-flight wave: one coordinate on a one-job pool, roughly
    [4 * jobs] above.
    @raise Invalid_argument naming the offending [retry] field when
    [rt_max_attempts < 1], [rt_backoff_s < 0], [rt_backoff_mult < 1],
    or [rt_hang_timeout_s <= 0] (NaN fields are rejected too), and on a
    design {!Experiment.check_design} refuses (see {!check_design}). *)

(** {1 Checkpoint journal} *)

val header_line :
  app_name:string -> plan:Fault.plan -> retry:retry ->
  Experiment.design -> string
(** The identity line pinning app, design, fault plan, and retry policy;
    a journal may only resume a campaign with an equal header. *)

val record_to_line : record -> string
(** One JSON object on one line; floats printed exactly (["%.17g"]). *)

val run_to_line : Simulator.run -> string
(** One completed run as a deterministic JSON line (the CLI's [--dump]
    format) — byte-identical runs produce byte-identical lines. *)

val record_of_line :
  mode:Instrument.mode -> string -> (record, string) result
(** Inverse of {!record_to_line}, bit-for-bit.  Errors read
    ["bad journal line: "] plus the parse error or the field at fault. *)

val load_journal :
  mode:Instrument.mode -> expected_header:string -> string ->
  (record list * int, string) result
(** Parse a journal file, validating its header.  Returns the records
    plus the number of torn trailing lines skipped (0 or 1), under
    {!Obs_json.decode_lines}'s rule: a failure on any earlier line is the
    error ["PATH:LINE: bad journal line: ..."].
    @raise Sys_error when the file cannot be read. *)

val write_journal : header:string -> record list -> string -> unit
(** Replace the journal at the path with [header] and one
    {!record_to_line} per record, atomically ({!Obs_json.write_lines}):
    a kill leaves the old journal or the new one, never an empty or
    header-torn file.  {!run_journaled} starts every journal this way,
    and the shard coordinator writes its merged journal with it. *)

val run_journaled :
  ?pool:Par.Pool.t ->
  ?metrics:Obs_metrics.t ->
  ?trace:Obs_trace.sink ->
  ?events:Obs_events.sink ->
  ?plan:Fault.plan ->
  ?retry:retry ->
  ?keep:(Spec.params -> int -> bool) ->
  ?limit:int ->
  journal:string -> resume:bool ->
  Spec.app -> Mpi_sim.Machine.t -> Experiment.design -> report
(** {!run} with the journal wired up: when [resume] is set and the
    journal exists with a matching header, finished coordinates are
    restored; otherwise the journal starts empty.  Either way the
    journal is first rewritten ({!write_journal}) to its header and
    restored records, then each new record is appended
    and flushed as it completes, so a killed campaign loses at most the
    in-flight coordinate and never the journal.  A torn trailing line is
    cut off by that rewrite (its coordinate re-executed), counted in the
    [campaign.journal_torn] counter and reported as a
    [campaign.journal_torn] event.  [events] additionally carries a
    [campaign.checkpoint] event per flushed record.
    @raise Invalid_argument before touching the journal, as {!run} does.
    @raise Failure when resuming from an unreadable or mismatched
    journal. *)

val total_fit :
  ?pool:Par.Pool.t -> Experiment.design -> Simulator.run list ->
  Model.Search.result * int
(** The outlier-robust total-runtime model of a campaign's runs, in the
    grid axes that take more than one value: {!Model.Search.multi_robust}
    over {!Experiment.total_dataset}, scoring on [pool] when given.
    Returns the fit and the number of outliers rejected. *)

val pp_report : report Fmt.t
