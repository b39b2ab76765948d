(** Regression-aware bench reporting: tolerance-based comparison of
    [BENCH_<exp>.json] result files against committed baselines, and a
    merged markdown report (bench results + campaign journal + metrics
    snapshot) with baseline deltas. *)

val flatten : Obs_json.t -> (string * Obs_json.t) list
(** Scalar leaves as (dotted path, value) pairs in document order; list
    elements index as [path[i]]. *)

type mismatch = {
  mm_path : string;
  mm_expected : string;
  mm_actual : string;   (** ["<missing>"] when the key is absent *)
  mm_reason : string;
}

val compare_values :
  tolerance:float -> expected:Obs_json.t -> actual:Obs_json.t -> mismatch list
(** Baseline-key-ordered mismatches: numbers compare within the relative
    tolerance (absolute floor [1e-12] near zero), strings and booleans
    exactly; a baseline key missing from [actual] is a mismatch, extra
    keys in [actual] are not.  ["experiment"]/["tolerance"] are metadata
    and skipped. *)

type check = {
  ck_name : string;        (** experiment name (from the baseline) *)
  ck_baseline : string;    (** baseline path *)
  ck_tolerance : float;
  ck_mismatches : mismatch list;  (** empty = pass *)
}

val check_baseline :
  ?tolerance:float -> baseline:string -> actual:string -> unit ->
  (check, string) result
(** Compare one baseline file against the actual results file, within
    the baseline's top-level ["tolerance"] key if it has one, else
    [tolerance] (default 0.05).  A missing actual file is a failing
    check (not an error); an unparsable file is an [Error]. *)

val check_dir :
  ?tolerance:float -> dir:string -> actual_dir:string -> unit ->
  (check list, string) result
(** Check every [BENCH_*.json] baseline in [dir] against the same-named
    file in [actual_dir], in filename order.  [Error] when [dir] is
    missing or holds no baselines. *)

val passed : check list -> bool

val pp_checks : check list Fmt.t
(** One PASS/FAIL line per check, with per-mismatch detail on failures. *)

val report :
  ?baselines_dir:string ->
  ?journal:string ->
  ?stats:string ->
  bench_files:string list ->
  unit ->
  string
(** The merged markdown report: one section per [BENCH_*.json] result
    file (with baseline and delta columns where [baselines_dir] has a
    same-named baseline), then an optional campaign-journal summary and
    an optional metrics-snapshot section (from a [stats --json] file). *)
