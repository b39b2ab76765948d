(** A deterministic domain pool.

    A pool owns a fixed set of worker domains fed from a chunked work
    queue. All scheduling nondeterminism is confined to *when* a task
    runs; results are collected into a slot keyed by the input index, so
    [map pool f xs] returns exactly what [List.map f xs] returns — the
    same values in the same order — for any pool size and any chunking.
    When the tasks themselves are pure (all the call sites in this
    codebase are), the output is bit-identical to serial execution.

    Concurrency contract: a pool of more than one job is driven by one
    domain at a time (the one that called {!create}). [map] must not be
    called reentrantly or from two domains at once; tasks must not
    submit to the pool they run on. Tasks may only share data through
    their return value — anything else they touch must be domain-local.
    A one-job pool without [?metrics], {!serial} included, is exempt:
    its [map] is a plain loop on the calling domain. *)

type t

val create : ?metrics:Obs_metrics.t -> jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs] is
    clamped to at least 1); the submitting domain participates in every
    [map], so [jobs = 1] spawns nothing and degenerates to plain serial
    iteration. [?metrics] registers the [par.*] counters in the given
    registry; they are only ever bumped from the submitting domain. *)

val serial : t
(** The shared one-job pool. Its [map] runs the tasks in input order on
    the calling domain and touches no shared state, so any number of
    domains may use it at once, from inside another pool's tasks too.
    Every consumer that takes [?pool] runs on it when none is given. *)

val jobs : t -> int
(** Worker-domain count including the submitter (i.e. the [~jobs] given
    to {!create}, clamped). *)

val wave : t -> int
(** How many items a consumer that commits results between [map]s hands
    the pool at once: 1 on a one-job pool, so nothing runs ahead of the
    last commit, and [4 * jobs] otherwise, enough to keep every worker
    busy. *)

val shutdown : t -> unit
(** Close the queue and join all worker domains. Idempotent. Any
    subsequent [map] runs serially on the submitter. *)

val with_pool : ?metrics:Obs_metrics.t -> jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] = [create], apply [f], and {!shutdown} on all
    exits, including exceptions. *)

val map : t -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element of [xs] on the pool and
    returns the results in input order. If one or more tasks raise, all
    tasks still run to completion, the pool stays usable, and the
    exception of the *lowest-indexed* failing element is re-raised (with
    its backtrace) — again independent of scheduling. [?chunk] overrides
    the items-per-task grain (default: [length / (jobs * 4)], clamped to
    [1, 64]). *)

val counters : (string * string) list
(** Name and description of every [par.*] counter, in the order they
    appear in doc/OBSERVABILITY.md (the doc table is drift-tested
    against this list). *)
