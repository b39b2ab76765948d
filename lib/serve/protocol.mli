(** The daemon's wire protocol: one JSON object per line in each
    direction, written and read by {!Obs_json} (exact float round-trip).  The
    grammar is documented in doc/SERVE.md; a drift test keeps the two in
    sync via {!ops}. *)

type fit_spec = {
  fs_app : string;
  fs_grid : (string * float list) list option;
      (** design-grid override; [None] = the app's registry grid *)
  fs_reps : int;  (** default 5 *)
  fs_sigma : float;  (** default 0.02 *)
  fs_seed : int;  (** default 42 *)
  fs_faults : string;  (** {!Measure.Fault.of_spec} syntax; default "" *)
  fs_retries : int;  (** default 3 *)
  fs_backoff : float;  (** default 30 s *)
}
(** Everything that enters the catalog key besides the program text —
    the defaults mirror the [campaign] subcommand's. *)

type request =
  | Predict of fit_spec * (string * float) list  (** spec, coordinates *)
  | Fit of fit_spec
  | Invalidate_key of string
  | Invalidate_app of string
  | Stats
  | Shutdown

val ops : (string * string) list
(** The request-op vocabulary (name, meaning) — kept in sync with
    doc/SERVE.md by a drift test. *)

val request_of_line : string -> (request, string) result
(** Parse one request line.  Every error is a one-line message suitable
    for {!error_line}; the connection survives it. *)

val error_line : string -> string
(** [{"ok":false,"error":...}] — the one-line failure response. *)

val predict_line :
  key:string ->
  cached:bool ->
  app:string ->
  prediction:float ->
  model:string ->
  smape:float ->
  string

val fit_line : cached:bool -> Catalog.entry -> string
(** Embeds the full catalog entry, so a client sees exactly what was
    memoized. *)

val invalidate_line : removed:int -> string
val shutdown_line : string

val stats_line : (string * Obs_json.t) list -> string
(** [{"ok":true,"op":"stats",...fields}]. *)
