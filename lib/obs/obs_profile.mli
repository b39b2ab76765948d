(** A deterministic sampling profiler for the interpreter.

    Instead of a wall-clock timer, the profiler is driven by the
    engine's simulated cost: every [interval] executed steps ({!tick})
    it charges one sample to the current call-tree node, maintained by
    {!enter}/{!leave} at every function call.  Because nothing reads a
    clock, the profile is a pure function of the executed instruction
    stream — bit-identical across runs, machines, and [--jobs] counts.

    Profiles are {!merge}-able in task order, like [Obs_metrics]
    registries: parallel sections give each task a private profiler and
    the submitting domain folds them back deterministically.

    Exports: a top-N text table ({!pp_table}), JSON ({!to_json}), and
    collapsed-stacks text ({!to_folded}) loadable by flamegraph tools
    (flamegraph.pl, inferno, speedscope). *)

type t

val default_interval : int
(** 1000 steps per sample. *)

val create : ?interval:int -> unit -> t
(** A fresh profiler sampling every [interval] steps (default
    {!default_interval}).
    @raise Invalid_argument when [interval < 1]. *)

val interval : t -> int
val samples : t -> int
(** Samples taken so far. *)

val enter : t -> string -> unit
(** Push a function onto the profiled call stack (engine call entry). *)

val leave : t -> unit
(** Pop the profiled call stack (engine call return).  A leave without a
    matching enter is ignored. *)

val tick : t -> unit
(** Count one executed step; every [interval] ticks, charge a sample to
    the current call-tree node.  The engine calls this from its step
    hot path — one decrement and branch per step. *)

val merge : into:t -> t -> unit
(** Fold one profiler into another: samples add per call path, paths are
    visited in the source's deterministic creation order.  Parallel
    sections merge per-task profiles back in task order, reproducing
    the serial profile exactly.
    @raise Invalid_argument when the intervals differ. *)

(** {1 Snapshots and exports} *)

type row = {
  pr_func : string;
  pr_self : int;   (** samples with this function innermost *)
  pr_total : int;  (** samples with this function anywhere on the stack *)
}

type snapshot = {
  ps_interval : int;
  ps_samples : int;
  ps_funcs : row list;  (** self-samples descending, then by name *)
  ps_paths : (string list * int) list;
      (** (root-first call path, samples), lexicographic order *)
}

val snapshot : t -> snapshot

val to_folded : t -> string
(** Collapsed-stacks text, one ["main;solve;spmv 42"] line per sampled
    call path in lexicographic order — loadable by flamegraph tools and
    byte-identical across runs of the same program. *)

val folded_of_snapshot : snapshot -> string

val pp_table : ?top:int -> snapshot Fmt.t
(** Top-N table (default 20 rows): function, self and total samples,
    self percentage. *)

val to_json : t -> Obs_json.t
(** The profile as one JSON object; see {!json_fields} for the schema
    vocabulary. *)

val json_fields : (string * string) list
(** The [profile.*] output-field vocabulary (name, meaning) — kept in
    sync with doc/OBSERVABILITY.md by a drift test. *)
