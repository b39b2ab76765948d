(** Distributed campaign sharding: deterministic partition of an
    {!Experiment.design} across worker processes, worker supervision
    (timeouts, restart-with-resume), and crash-tolerant merge of the
    per-shard checkpoint journals back into one campaign.

    The identity contract, enforced by the [shard-identity] fuzz
    oracle on {!coordinate}: 1 shard ≡ M shards ≡ M shards with
    injected worker kills — bit-identical records, journal bytes,
    [campaign.*] counters, and event stream but for the supervision
    events. *)

type t = { sh_index : int; sh_count : int }
(** Shard [sh_index] of [sh_count], with [0 <= sh_index < sh_count]. *)

val of_spec : string -> (t, string) result
(** Parse a ["K/M"] worker spec (the CLI's [--shard]); the error is a
    one-line message naming the expected shape. *)

val spec_of : t -> string
(** ["K/M"], the inverse of {!of_spec}. *)

val assign : shards:int -> params:Spec.params -> rep:int -> int
(** The owning shard of a run coordinate: a salted hash of the sorted
    parameter bindings and the repetition, mod [shards].  Deterministic
    across processes of the same binary and independent of grid axis
    order.
    @raise Invalid_argument when [shards < 1]. *)

val owns : t -> params:Spec.params -> rep:int -> bool
(** [assign ~shards:t.sh_count ~params ~rep = t.sh_index] — the [keep]
    predicate a worker passes to {!Campaign.run_journaled}. *)

val coordinates : t -> Experiment.design -> (Spec.params * int) list
(** The shard's subset of {!Campaign.coordinates}, in design order.
    The subsets over [0 .. sh_count-1] partition the design exactly. *)

val journal_path : journal:string -> int -> string
(** [journal_path ~journal k] is ["<journal>.shard<k>"] — where the
    coordinator places shard [k]'s worker journal. *)

val counters : (string * string) list
(** The [shard.*] counter vocabulary (name, meaning) — kept in sync
    with doc/OBSERVABILITY.md by a drift test. *)

val event_names : (string * string) list
(** The [shard.*] structured-event vocabulary (name, meaning) — kept in
    sync with doc/OBSERVABILITY.md by a drift test. *)

(** {1 Journal merge} *)

type merge = {
  mg_records : Campaign.record list;  (** global design order *)
  mg_journals : int;                  (** journals merged *)
  mg_duplicates : int;   (** restart overlaps dropped (first completed wins) *)
  mg_torn : int;         (** torn trailing lines skipped across journals *)
  mg_missing : (Spec.params * int) list;
      (** design coordinates no journal covered (incomplete shards) *)
}

val merge_journals :
  ?metrics:Obs_metrics.t ->
  ?events:Obs_events.sink ->
  mode:Instrument.mode ->
  expected_header:string ->
  design:Experiment.design ->
  string list ->
  (merge, string) result
(** Reassemble per-shard journals into one campaign.  Every header must
    equal [expected_header] (a journal from a different app, design,
    fault plan or retry policy is refused with a one-line error);
    coordinates appearing in several journals after a restart are
    deduplicated — first completed record wins, each duplicate counted
    in [campaign.shard_dup]; torn trailing lines are skipped (counted
    in [campaign.journal_torn]); records naming coordinates outside the
    design are an error.  Records come back in {!Campaign.coordinates}
    order with their [campaign.*] counter bumps and fault/record events
    replayed in that order — byte-identical to a single-process
    campaign's registry and stream — followed by one [shard.merge]
    summary event.  {!Campaign.write_journal} of the records is
    byte-identical to a single-process campaign's journal. *)

(** {1 Coordinator} *)

type launched =
  | Spawned of int  (** a worker process, by pid, still to be reaped *)
  | Returned  (** a worker that ran to its end within the launch *)

type launcher = shard:t -> journal:string -> resume:bool -> launched
(** Start the worker of [shard], journaling to [journal]; [resume] is
    set on every restart. *)

val process : (shard:t -> journal:string -> resume:bool -> string array) ->
  launcher
(** One worker process per launch, running the command line the function
    builds, with its stdout and stderr appended to ["<journal>.log"]. *)

val coordinate :
  ?metrics:Obs_metrics.t ->
  ?events:Obs_events.sink ->
  header:string ->
  design:Experiment.design ->
  shards:int ->
  journal:string ->
  timeout_s:float ->
  max_restarts:int ->
  launcher ->
  (merge, string) result
(** Run a campaign over [shards] workers and merge it into [journal].
    Launches one worker per shard, journaling to {!journal_path}, and
    supervises them: a worker that dies, outlives its [timeout_s]
    wall-clock budget (a process is killed) or ends with its shard
    incomplete is restarted with [resume:true] up to [max_restarts]
    times, re-executing only unjournaled coordinates.  Then
    {!merge_journals} against the campaign [header], and
    {!Campaign.write_journal} of the merged records to [journal].
    [Error] is one line: a shard that exhausted its restarts, a failed
    merge, or a merge that left coordinates unmeasured.
    Spawn/death/restart are counted in the [shard.*] counters and
    reported as [shard.*] events; they depend on timing and sit outside
    the identity contract, the merge's counters and events inside it. *)
