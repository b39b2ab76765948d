(** The model-serving daemon: a line-delimited-JSON request loop over a
    Unix or TCP socket, answering {!Protocol.request}s out of a
    {!Catalog.t}.

    Requests drain in batches (everything readable on a connection is
    one batch).  Within a batch, hits are answered immediately; the
    distinct cold fits are executed concurrently on the domain pool
    (each fit is internally serial, on {!Par.Pool.serial}) and
    memoized in first-appearance order, so the catalog contents and
    every response are bit-identical to handling the same lines one at a
    time.  Duplicate keys within a batch fit once: the first occurrence
    is the miss, the rest are hits riding it.

    Admission control: when a core-hour budget is set, a cold fit is
    only admitted while the simulated core-hours already spent (runs +
    wasted attempts + backoff) are below the budget; rejected fits get a
    one-line error, hits are still served. *)

type t

val counters : (string * string) list
(** The [serve.*] metrics vocabulary (counters, gauges, histograms) —
    kept in sync with doc/OBSERVABILITY.md by a drift test. *)

val event_names : (string * string) list
(** The [serve.*] structured-event vocabulary — drift-tested likewise. *)

val create :
  ?pool:Par.Pool.t ->
  ?metrics:Obs_metrics.t ->
  ?events:Obs_events.sink ->
  ?max_core_hours:float ->
  catalog:Catalog.t ->
  unit ->
  t
(** [metrics] should be the registry the catalog was opened with, so
    [serve.evictions] lands beside the server's own instruments. *)

val metrics : t -> Obs_metrics.t
val spent_core_hours : t -> float
(** Simulated core-hours charged by this process's admitted fits. *)

val handle_batch : t -> string list -> string list * bool
(** Handle one batch of request lines; returns one response line per
    request (in request order) and whether a [shutdown] was seen.  This
    is the whole daemon minus the socket — tests, the bench, and the
    fuzz oracle drive it in-process. *)

val handle_line : t -> string -> string * bool
(** A batch of one. *)

(** {1 Sockets} *)

type endpoint = Unix_socket of string | Tcp of int

val endpoint_name : endpoint -> string

val bind_endpoint : endpoint -> (Unix.file_descr, string) result
(** Bind and listen.  A Unix-socket path with a live daemon behind it is
    refused ([Error] naming the path); a stale socket file (nothing
    accepting) is unlinked and rebound.  A TCP port already in use is
    refused likewise. *)

val close_endpoint : endpoint -> Unix.file_descr -> unit
(** Close the listener and unlink a Unix socket path. *)

val connect :
  ?attempts:int -> endpoint -> (in_channel * out_channel, string) result
(** Client side.  Retries connection-refused/not-found every 50 ms up to
    [attempts] (default 100) — the daemon may still be binding. *)

val max_line_bytes : int
(** The longest request line the daemon buffers: 1 MiB. *)

val serve_loop : ?max_requests:int -> t -> Unix.file_descr -> unit
(** Accept connections and answer until a [shutdown] request arrives (or
    [max_requests] lines have been handled).  A malformed line gets a
    one-line JSON error and the connection survives; a disconnecting
    client never stops the loop.  A line that grows past
    {!max_line_bytes} is answered with one error naming the limit as
    soon as it crosses it; its remaining bytes through the next newline
    are discarded, and the connection stays open. *)
