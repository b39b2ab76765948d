(** Distributed campaign sharding: deterministic partition of an
    {!Experiment.design} across worker processes, worker supervision
    (timeouts, restart-with-resume), and crash-tolerant merge of the
    per-shard checkpoint journals back into one campaign.

    The identity contract, enforced by the [shard-identity] fuzz
    oracle: 1 shard ≡ M shards ≡ M shards with injected worker kills —
    bit-identical records, journal bytes, [campaign.*] counters, and
    event stream. *)

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

(** {1 Worker supervision} *)

val complete :
  mode:Instrument.mode ->
  expected_header:string ->
  design:Experiment.design ->
  t -> string -> bool
(** Does the journal at [path] parse against the campaign header and
    cover every coordinate the shard owns? *)

val run_workers :
  ?metrics:Obs_metrics.t ->
  ?events:Obs_events.sink ->
  mode:Instrument.mode ->
  expected_header:string ->
  design:Experiment.design ->
  shards:int ->
  journal:string ->
  timeout_s:float ->
  max_restarts:int ->
  argv:(shard:t -> journal:string -> resume:bool -> string array) ->
  unit ->
  (unit, string) result
(** Spawn one worker process per shard ([argv] builds each command
    line; workers write to {!journal_path} and log to
    ["<shard journal>.log"]) and supervise them: a worker that dies, is
    killed by its [timeout_s] wall-clock budget, or exits leaving its
    shard incomplete is restarted with [resume:true] up to
    [max_restarts] times, re-executing only unjournaled coordinates.
    Returns [Error] with a one-line message when a shard exhausts its
    restarts.  Spawn/death/restart are counted in the [shard.*]
    counters and reported as [shard.*] events (supervision events are
    timing-dependent — determinism lives in the journals, not here). *)
