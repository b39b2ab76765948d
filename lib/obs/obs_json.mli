(** The tree's one JSON module: a value type, an exact single-line
    writer, a parser, result-typed field readers, and the JSON-lines
    file layer.  Journals, the model catalog, the daemon's wire
    protocol, BENCH files, [--json] reports, traces, event logs and
    profiles are all built as {!t} and printed by {!to_string}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Single line, no insignificant whitespace.  Finite floats print via
    ["%.17g"] (["%.1f"] when integral and below 1e15), so every IEEE
    double survives [parse (to_string v)] bit for bit; NaN and the
    infinities print as [null].  Strings escape quote, backslash and
    control characters and copy every other byte unchanged. *)

val parse : string -> (t, string) result
(** Accepts what {!to_string} emits (plus whitespace); rejects trailing
    input.  Unicode escapes above [0x7f] are unsupported. *)

val member : string -> t -> t option
val to_float : t -> float option
(** Accepts [Float] and [Int]. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option

(** {1 Readers}

    Decoders whose errors are one line naming what was expected and
    where, e.g. [field "reps" int] fails with
    ["field \"reps\": expected an integer"]. *)

type 'a read = t -> ('a, string) result

val str : string read
val int : int read
val float : float read
(** Accepts [Float] and [Int]. *)

val list : t list read
val obj : (string * t) list read

val within : string -> 'a read -> 'a read
(** [within what r] prefixes [r]'s error with ["what: "]. *)

val field : string -> 'a read -> 'a read
(** The member [name] through [r]: ["missing field \"name\""] when
    absent, [r]'s error {!within} ["field \"name\""] otherwise. *)

val field_or : string -> 'a -> 'a read -> 'a read
(** {!field}, with an absent member reading as the default. *)

val each : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** Map in order; the first error wins. *)

(** {1 JSON-lines files}

    Every JSON-lines file of the tree — campaign journals, the model
    catalog's index, event logs, [--dump] datasets, BENCH files — is
    read and written here.  A writer killed mid-line loses at most that
    line, which {!decode_lines} skips; whole-file writes are atomic. *)

val read_lines : string -> (int * string) list
(** The file's nonempty lines with their 1-based line numbers.
    @raise Sys_error when the file cannot be read. *)

val decode_lines :
  path:string ->
  (string -> ('a, string) result) ->
  (int * string) list ->
  ('a list * int, string) result
(** Decode {!read_lines} output in order under the torn-tail rule: a
    failure on the last line is the partial write of a killed writer,
    skipped and counted (the [int], 0 or 1); a failure on any earlier
    line is the error ["PATH:LINE: message"]. *)

val write_lines : string -> string list -> unit
(** Replace the file with [lines], each newline-terminated: written to
    ["PATH.tmp"] and renamed over [path], so a kill leaves the old file
    or the new one, never a part.  A path that exists but is not a
    regular file (a symlink, a FIFO, [/dev/stdout]) is written in place.
    @raise Sys_error when the file cannot be written. *)

val open_append : string -> out_channel
(** An append channel on the file, created if absent. *)

val append_line : out_channel -> string -> unit
(** Write one line and flush it, so a kill loses at most that line. *)
