(** A structured event log: one JSON object per line with a sequence
    number, optional timestamp, severity, component, event name and
    typed key/value fields.

    The sink is either {!disabled} — every entry point is a single-match
    no-op — or recording, in memory and optionally into a file flushed
    per line (so a killed process loses at most the in-flight event).

    Determinism: emitters route every event through a single writer
    domain (the campaign executor and the model search emit only from
    the submitting domain), so sequence numbers and event order are
    identical at any [--jobs] count.  Timestamps are the one wall-clock
    field; create the sink with [~ts:false] for byte-identical logs. *)

type severity = Debug | Info | Warn | Error

type value = Obs_json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list
(** A typed event field. *)

type sink

val disabled : sink

val create : ?ts:bool -> unit -> sink
(** An in-memory sink.  [ts] (default [true]) stamps each event with
    seconds since sink creation ([ts_s], monotonic clock). *)

val to_file : ?ts:bool -> string -> sink
(** A sink writing (and flushing) one JSON line per event to [path],
    also retained in memory for {!lines}.  Call {!close} when done. *)

val close : sink -> unit
(** Close the backing file, if any.  Safe on any sink. *)

val enabled : sink -> bool

val emit :
  sink -> ?severity:severity -> component:string ->
  ?fields:(string * value) list -> string -> unit
(** Emit one event.  [severity] defaults to [Info]; [fields] are
    appended to the JSON object in order. *)

val lines : sink -> string list
(** Every emitted line, in emission order (empty when disabled). *)

val count : sink -> int
(** Events emitted so far. *)
