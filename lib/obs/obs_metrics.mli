(** A metrics registry for the analysis pipeline itself: named counters,
    gauges, and fixed-bucket histograms.

    Instruments are interned by name: fetching a counter twice returns
    the same mutable cell, so hot paths resolve their instruments once at
    setup time and then pay a single unboxed increment per event.  Code
    that may run without a registry holds an [instrument option] (or a
    record of them) and matches on it — the [None] branch performs no
    allocation and no hashing, which is what keeps the interpreter's
    disabled path free.

    A registry is single-domain (its instruments are plain mutable
    cells): parallel code counts on the submitting domain, from the
    values its tasks return. *)

type t
(** A registry: a namespace of counters, gauges, and histograms. *)

val create : unit -> t

(** {1 Counters} — monotonically increasing integer totals. *)

type counter

val counter : t -> string -> counter
(** Intern the counter named [name]; created at zero on first use. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} — last-written (or accumulated) float values. *)

type gauge

val gauge : t -> string -> gauge
(** Intern the gauge named [name]; created unset (absent from
    snapshots until first written). *)

val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val max_gauge : gauge -> float -> unit
(** Keep the running maximum of the observed values. *)

(** {1 Histograms} — fixed upper-bound buckets plus an overflow bucket. *)

type histogram

val histogram : t -> ?bounds:float array -> string -> histogram
(** Intern the histogram named [name].  [bounds] are strictly increasing
    bucket upper bounds; values above the last bound land in the
    overflow bucket.  [bounds] is only consulted on first creation. *)

val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type hist_snapshot = {
  hs_buckets : (float * int) list;  (** (upper bound, count) per bucket *)
  hs_overflow : int;
  hs_count : int;
  hs_sum : float;
  hs_min : float;  (** +inf when empty *)
  hs_max : float;  (** -inf when empty *)
}

type snapshot = {
  counters : (string * int) list;          (** sorted by name *)
  gauges : (string * float) list;          (** sorted; only written gauges *)
  histograms : (string * hist_snapshot) list;  (** sorted by name *)
}

val snapshot : t -> snapshot
(** An immutable copy of the current registry contents. *)

val quantile : hist_snapshot -> float -> float
(** [quantile hs q] estimates the [q]-th quantile (0 to 1) by monotone
    linear interpolation within the bucket holding the q-th observation:
    the first bucket's lower edge is the observed minimum, the overflow
    bucket's upper edge the observed maximum, and the result is clamped
    to [[hs_min, hs_max]].  Returns [nan] on an empty histogram;
    [q <= 0] gives the minimum, [q >= 1] the maximum. *)

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> float option

val counters_with_prefix : snapshot -> string -> (string * int) list
(** Counters whose name starts with [prefix], prefix stripped. *)

val pp_summary : snapshot Fmt.t
(** A compact text table: counters, then gauges, then histograms. *)
