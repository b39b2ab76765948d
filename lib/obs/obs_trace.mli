(** A trace sink recording phase spans and instant events, exportable as
    Chrome [trace_event] JSON ([chrome://tracing] / Perfetto "JSON array
    format") and as a compact per-span text summary.

    The sink is either [Disabled] — every recording entry point
    short-circuits on a single match, allocating nothing — or [Recording]
    into an in-memory buffer with a hard event cap.  When the cap is hit,
    further span begins and instants are dropped (and counted), but ends
    of already-recorded spans are still recorded so the emitted trace
    always has matched begin/end pairs.

    Sinks are safe to record into from multiple domains: the buffer is
    mutex-guarded and every event is stamped with its emitting domain id
    ([ev_tid]). Spans nest per domain lane — [balanced] and
    {!span_totals} match Begin/End pairs within each lane, and the
    Chrome export maps lanes to ["tid"]s. *)

type arg = Obs_json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of arg list
  | Obj of (string * arg) list
(** A typed event argument (the Chrome trace ["args"] payload). *)

type phase = Begin | End | Instant

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts_ns : int64;  (** monotonic nanoseconds since the sink was created *)
  ev_tid : int;  (** emitting domain id; lanes nest independently *)
  ev_args : (string * arg) list;
}

type sink
(** Either disabled or an in-memory recorder. *)

val disabled : sink

val create : ?max_events:int -> unit -> sink
(** A recording sink.  [max_events] (default [1_000_000]) caps the buffer;
    see the drop policy above. *)

val enabled : sink -> bool
(** [true] on recording sinks — guard argument construction with this. *)

val span_begin : sink -> ?cat:string -> ?args:(string * arg) list -> string -> unit
val span_end : sink -> ?args:(string * arg) list -> string -> unit
(** Spans nest by call order within the emitting domain (Chrome's
    duration-event stack discipline); [span_end]'s name must match the
    innermost open [span_begin] of the same domain. *)

val instant : sink -> ?cat:string -> ?args:(string * arg) list -> string -> unit

val with_span :
  sink -> ?cat:string -> ?args:(string * arg) list -> string ->
  (unit -> 'a) -> 'a
(** Run the thunk inside a span; the end event is recorded even when the
    thunk raises.  [args] attach to the Begin event. *)

val events : sink -> event list
(** Recorded events in chronological order (empty when disabled). *)

val dropped_events : sink -> int
(** Events discarded because the buffer cap was reached. *)

val balanced : event list -> bool
(** Are the Begin/End events properly nested and matched by name, within
    every per-domain lane? *)

val to_chrome_string : sink -> string
(** The Chrome trace: [{"traceEvents":[...],...}], one {!Obs_json}
    event object per line, with ["ph"] of ["B"]/["E"]/["i"] and
    microsecond ["ts"], loadable by Perfetto and [chrome://tracing]. *)

val write_file : sink -> string -> unit
(** Stream {!to_chrome_string} to a file, one event at a time. *)

type span_total = {
  st_name : string;
  st_count : int;
  st_total_s : float;  (** inclusive wall time over all instances *)
}

val span_totals : sink -> span_total list
(** Per-name span instance counts and inclusive totals, sorted by
    descending total time.  Unclosed spans are ignored. *)

val pp_summary : sink Fmt.t
(** Compact text summary: one line per span name, then drop counts. *)
