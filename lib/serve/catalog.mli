(** The content-addressed model catalog: fitted performance models keyed
    by a stable hash of the campaign identity, memoized in memory (an
    LRU of decoded entries) over an on-disk JSON-lines index, so a
    restarted daemon answers from disk instead of refitting.

    The {e answer} contract: an entry restored from the catalog — from
    the in-memory LRU, from the disk index, or after a full process
    restart — is bit-identical to the entry a cold fit produces: the
    model expression and coefficients, the fit-quality numbers, and the
    campaign counters all survive the round trip exactly (floats are
    serialized with ["%.17g"] via {!Obs_json}).  The
    [serve-identity] fuzz oracle and the [serve] bench enforce this. *)

(** {1 Keys} *)

val key :
  app_name:string ->
  program_text:string ->
  design:Measure.Experiment.design ->
  plan:Measure.Fault.plan ->
  retry:Measure.Campaign.retry ->
  string
(** The catalog key: an MD5 hex digest over the program text digest plus
    {!Measure.Campaign.header_line} — the same identity line that pins a
    checkpoint journal to its campaign, so anything that would forbid a
    journal resume (app, grid, reps, mode, noise sigma and seed, fault
    plan, retry policy) also changes the key. *)

(** {1 Entries} *)

type entry = {
  e_key : string;
  e_app : string;
  e_model : Model.Expr.model;
  e_error : float;  (** leave-one-out cross-validated SMAPE, percent *)
  e_rss : float;
  e_hypotheses : int;
  e_rejected : int;  (** repetitions rejected by the robust fit *)
  e_runs : int;  (** completed measurement runs behind the fit *)
  e_core_hours : float;  (** simulated core-hours of the completed runs *)
  e_attempts : int;
  e_retries : int;
  e_abandoned : int;
  e_faults : (string * int) list;  (** per {!Measure.Fault.kind_names} *)
  e_wasted_core_hours : float;
  e_backoff_core_hours : float;
}

val total_core_hours : entry -> float
(** Everything the fit's campaign burned: completed runs plus wasted
    attempts plus backoff — the admission-budget charge. *)

val entry_json : entry -> Obs_json.t
(** The entry as one JSON object; floats print exactly (["%.17g"]). *)

val entry_to_line : entry -> string
(** {!entry_json} on one line. *)

val entry_of_line : string -> (entry, string) result
(** Exact inverse of {!entry_to_line}: [entry_of_line (entry_to_line e)]
    returns [e] bit-for-bit. *)

val fit :
  app:Measure.Spec.app ->
  machine:Mpi_sim.Machine.t ->
  design:Measure.Experiment.design ->
  plan:Measure.Fault.plan ->
  retry:Measure.Campaign.retry ->
  key:string ->
  unit ->
  entry
(** The cold path a catalog miss pays: execute the fault-injected
    campaign and fit an outlier-robust total-runtime model over the grid
    axes with more than one value (exactly what the [campaign] CLI
    fits).  Deliberately serial: it runs on {!Par.Pool.serial}, which any
    domain may use, while the daemon parallelizes {e across} concurrent
    fits on its own domain pool.
    @raise Invalid_argument on an invalid retry policy or a dataset the
    search cannot fit (e.g. every coordinate abandoned). *)

(** {1 The store} *)

type t

val open_ :
  ?metrics:Obs_metrics.t ->
  ?events:Obs_events.sink ->
  ?capacity:int ->
  dir:string ->
  unit ->
  (t, string) result
(** Open (or create) the catalog index [dir/catalog.jsonl].  [dir] must
    already exist — a missing directory is an [Error] naming the path,
    never a silently created one.  Existing entries are indexed by key
    (raw lines; decoded lazily on first {!find}), so a warm restart
    serves every previously fitted model without refitting.  The index
    is read under {!Obs_json.decode_lines}'s rule — a torn trailing line,
    the partial flush of a killed writer, is skipped; corruption anywhere
    earlier is an [Error] naming the line — and then rewritten
    atomically to one line per key, so the torn tail is cut before the
    next append.
    [capacity] bounds the in-memory LRU of {e decoded} entries (default
    {!default_capacity}); the disk index is never evicted.  [metrics]
    registers the [serve.evictions] counter; [events] receives a
    [serve.evict] event per LRU drop. *)

val default_capacity : int

val close : t -> unit
(** Flush and close the index append handle.  Safe to call twice. *)

val index_path : t -> string

val length : t -> int
(** Persisted entries (disk index size). *)

val resident : t -> int
(** Decoded entries currently held by the in-memory LRU. *)

val find : t -> string -> entry option
(** Look a key up: the LRU first, then the disk index (decoding and
    promoting into the LRU).  [None] means a cold fit is required. *)

val mem : t -> string -> bool
(** Key present (memory or disk) without promoting it. *)

val insert : t -> entry -> unit
(** Memoize a fitted entry: append one line to the disk index (flushed,
    so a killed daemon loses at most the in-flight entry) and promote it
    into the LRU, evicting the least-recently-used decoded entry beyond
    capacity. *)

val invalidate : t -> key:string -> bool
(** Remove one entry from memory and disk (the index is atomically
    rewritten).  Returns whether the key was present. *)

val invalidate_app : t -> app:string -> int
(** Remove every entry fitted for the named app; returns how many. *)
