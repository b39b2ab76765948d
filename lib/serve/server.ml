module J = Obs_json

let counters =
  [
    ("serve.requests", "request lines handled, all ops (counter)");
    ("serve.hits", "predict/fit answers served from the catalog (counter)");
    ("serve.misses", "predict/fit answers that paid a cold fit (counter)");
    ("serve.evictions", "decoded entries dropped by the catalog LRU (counter)");
    ("serve.rejected", "cold fits refused by the core-hour budget (counter)");
    ("serve.invalidated", "catalog entries removed by invalidate (counter)");
    ("serve.batches", "request batches drained (counter)");
    ("serve.queue_depth", "largest batch drained so far (gauge)");
    ("serve.core_hours", "simulated core-hours charged by admitted fits \
                          (gauge)");
    ("serve.batch_size", "requests per drained batch (histogram)");
    ("serve.latency_s", "per-request turnaround seconds (histogram; \
                         p50/p95/p99 in stats)");
  ]

let event_names =
  [
    ("serve.admit", "a cold fit admitted under the core-hour budget");
    ("serve.fit", "a cold fit completed and was memoized");
    ("serve.evict", "the catalog LRU dropped a decoded entry");
    ("serve.reject", "a cold fit refused: the core-hour budget is spent");
    ("serve.invalidate", "an invalidate request removed catalog entries");
  ]

type t = {
  catalog : Catalog.t;
  pool : Par.Pool.t;
  metrics : Obs_metrics.t;
  events : Obs_events.sink;
  max_core_hours : float option;
  mutable spent : float;
  c_requests : Obs_metrics.counter;
  c_hits : Obs_metrics.counter;
  c_misses : Obs_metrics.counter;
  c_rejected : Obs_metrics.counter;
  c_invalidated : Obs_metrics.counter;
  c_batches : Obs_metrics.counter;
  g_queue : Obs_metrics.gauge;
  g_core : Obs_metrics.gauge;
  h_batch : Obs_metrics.histogram;
  h_latency : Obs_metrics.histogram;
}

let latency_bounds =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10. |]

let batch_bounds = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]

let create ?(pool = Par.Pool.serial) ?metrics ?(events = Obs_events.disabled)
    ?max_core_hours ~catalog () =
  let metrics =
    match metrics with Some m -> m | None -> Obs_metrics.create ()
  in
  {
    catalog;
    pool;
    metrics;
    events;
    max_core_hours;
    spent = 0.;
    c_requests = Obs_metrics.counter metrics "serve.requests";
    c_hits = Obs_metrics.counter metrics "serve.hits";
    c_misses = Obs_metrics.counter metrics "serve.misses";
    c_rejected = Obs_metrics.counter metrics "serve.rejected";
    c_invalidated = Obs_metrics.counter metrics "serve.invalidated";
    c_batches = Obs_metrics.counter metrics "serve.batches";
    g_queue = Obs_metrics.gauge metrics "serve.queue_depth";
    g_core = Obs_metrics.gauge metrics "serve.core_hours";
    h_batch = Obs_metrics.histogram metrics ~bounds:batch_bounds
        "serve.batch_size";
    h_latency = Obs_metrics.histogram metrics ~bounds:latency_bounds
        "serve.latency_s";
  }

let metrics t = t.metrics
let spent_core_hours t = t.spent

(* -- request resolution -------------------------------------------- *)

type resolved = {
  rs_app : Registry.app;
  rs_design : Measure.Experiment.design;
  rs_plan : Measure.Fault.plan;
  rs_retry : Measure.Campaign.retry;
  rs_key : string;
}

let resolve (spec : Protocol.fit_spec) =
  match Registry.find spec.fs_app with
  | None ->
      Error
        (Printf.sprintf "unknown app %S (known: %s)" spec.fs_app
           (String.concat ", " Registry.names))
  | Some r -> (
      match Measure.Fault.of_spec spec.fs_faults with
      | Error msg -> Error (Printf.sprintf "faults: %s" msg)
      | Ok plan ->
          let grid = Option.value ~default:r.Registry.r_grid spec.fs_grid in
          let design =
            {
              Measure.Experiment.grid;
              reps = spec.fs_reps;
              mode = Measure.Instrument.Full;
              sigma = spec.fs_sigma;
              seed = spec.fs_seed;
            }
          in
          let retry =
            {
              Measure.Campaign.default_retry with
              Measure.Campaign.rt_max_attempts = spec.fs_retries;
              rt_backoff_s = spec.fs_backoff;
            }
          in
          (* a design the campaign would refuse is never admitted *)
          match Measure.Campaign.check_design ~retry design with
          | exception Invalid_argument msg -> Error msg
          | () ->
              let key =
                Catalog.key_of_digest
                  ~app_name:r.Registry.r_app.Measure.Spec.aname
                  ~program_digest:(Registry.program_digest r)
                  ~design ~plan ~retry
              in
              Ok { rs_app = r; rs_design = design; rs_plan = plan;
                   rs_retry = retry; rs_key = key })

(* -- stats --------------------------------------------------------- *)

let stats_response t =
  let snap = Obs_metrics.snapshot t.metrics in
  let c name =
    Option.value ~default:0 (Obs_metrics.find_counter snap name)
  in
  let hits = c "serve.hits" and misses = c "serve.misses" in
  let lat = List.assoc_opt "serve.latency_s" snap.Obs_metrics.histograms in
  let q p =
    match lat with
    | Some hs when hs.Obs_metrics.hs_count > 0 ->
        J.Float (Obs_metrics.quantile hs p)
    | _ -> J.Null
  in
  Protocol.stats_line
    [
      ("requests", J.Int (c "serve.requests"));
      ("hits", J.Int hits);
      ("misses", J.Int misses);
      ("evictions", J.Int (c "serve.evictions"));
      ("rejected", J.Int (c "serve.rejected"));
      ("invalidated", J.Int (c "serve.invalidated"));
      ("batches", J.Int (c "serve.batches"));
      ( "hit_rate",
        if hits + misses = 0 then J.Null
        else J.Float (float_of_int hits /. float_of_int (hits + misses)) );
      ("resident", J.Int (Catalog.resident t.catalog));
      ("persisted", J.Int (Catalog.length t.catalog));
      ("core_hours_spent", J.Float t.spent);
      ( "core_hours_budget",
        match t.max_core_hours with Some b -> J.Float b | None -> J.Null );
      ("latency_p50_s", q 0.5);
      ("latency_p95_s", q 0.95);
      ("latency_p99_s", q 0.99);
    ]

(* -- batch handling ------------------------------------------------ *)

type kind = K_predict of (string * float) list | K_fit

type slot =
  | Ready of string (* response already final *)
  | Waiting of kind * resolved * bool (* cached flag for the response *)

let handle_batch t lines =
  Obs_metrics.incr t.c_batches;
  let n = List.length lines in
  Obs_metrics.observe t.h_batch (float_of_int n);
  Obs_metrics.max_gauge t.g_queue (float_of_int n);
  let start = Obs_clock.now_ns () in
  let shutdown = ref false in
  let slots = Array.make n (Ready "") in
  let done_at = Array.make n 0. in
  (* keys scheduled for a cold fit in this batch, in first-appearance
     order — the deterministic memoization order *)
  let scheduled = Hashtbl.create 8 in
  let fits = ref [] in
  let emit ?severity name fields =
    Obs_events.emit t.events ?severity ~component:"serve" ~fields name
  in
  let answer_from_entry kind cached (e : Catalog.entry) =
    match kind with
    | K_fit -> Protocol.fit_line ~cached e
    | K_predict coords -> (
        match Model.Expr.eval e.Catalog.e_model coords with
        | v when Float.is_finite v ->
            Protocol.predict_line ~key:e.Catalog.e_key ~cached
              ~app:e.Catalog.e_app ~prediction:v
              ~model:(Catalog.model_text t.catalog e)
              ~smape:e.Catalog.e_error
        | v ->
            let at (p, x) = Printf.sprintf "%s=%g" p x in
            Protocol.error_line
              (Printf.sprintf "prediction at %s is not finite (%g)"
                 (String.concat "," (List.map at coords))
                 v)
        | exception Invalid_argument msg -> Protocol.error_line msg)
  in
  (* phase 1 — serial, in request order: parse, resolve, classify.
     Hits are answered right here; only cold fits are deferred. *)
  let classify_model kind (spec : Protocol.fit_spec) =
    match resolve spec with
    | Error msg -> Ready (Protocol.error_line msg)
    | Ok rs -> (
        match Catalog.find t.catalog rs.rs_key with
        | Some e ->
            Obs_metrics.incr t.c_hits;
            Ready (answer_from_entry kind true e)
        | None ->
            if Hashtbl.mem scheduled rs.rs_key then begin
              (* rides the fit the first occurrence admitted *)
              Obs_metrics.incr t.c_hits;
              Waiting (kind, rs, true)
            end
            else
              let over_budget =
                match t.max_core_hours with
                | Some b -> t.spent >= b
                | None -> false
              in
              if over_budget then begin
                Obs_metrics.incr t.c_rejected;
                emit ~severity:Obs_events.Warn "serve.reject"
                  [ ("key", Obs_events.Str rs.rs_key);
                    ("app", Obs_events.Str spec.fs_app) ];
                Ready
                  (Protocol.error_line
                     (Printf.sprintf
                        "core-hour budget exhausted (%.3f spent of %.3f)"
                        t.spent
                        (Option.value ~default:0. t.max_core_hours)))
              end
              else begin
                Obs_metrics.incr t.c_misses;
                emit "serve.admit"
                  [ ("key", Obs_events.Str rs.rs_key);
                    ("app", Obs_events.Str spec.fs_app) ];
                Hashtbl.add scheduled rs.rs_key ();
                fits := rs :: !fits;
                Waiting (kind, rs, false)
              end)
  in
  List.iteri
    (fun i line ->
      Obs_metrics.incr t.c_requests;
      let slot =
        match Protocol.request_of_line line with
        | Error msg -> Ready (Protocol.error_line msg)
        | Ok Stats -> Ready (stats_response t)
        | Ok Shutdown ->
            shutdown := true;
            Ready Protocol.shutdown_line
        | Ok (Invalidate_key key) ->
            let removed = if Catalog.invalidate t.catalog ~key then 1 else 0 in
            Obs_metrics.add t.c_invalidated removed;
            emit "serve.invalidate"
              [ ("key", Obs_events.Str key);
                ("removed", Obs_events.Int removed) ];
            Ready (Protocol.invalidate_line ~removed)
        | Ok (Invalidate_app app) ->
            let removed = Catalog.invalidate_app t.catalog ~app in
            Obs_metrics.add t.c_invalidated removed;
            emit "serve.invalidate"
              [ ("app", Obs_events.Str app);
                ("removed", Obs_events.Int removed) ];
            Ready (Protocol.invalidate_line ~removed)
        | Ok (Predict (spec, coords)) -> classify_model (K_predict coords) spec
        | Ok (Fit spec) -> classify_model K_fit spec
      in
      slots.(i) <- slot;
      match slot with
      | Ready _ -> done_at.(i) <- Obs_clock.seconds_since start
      | Waiting _ -> ())
    lines;
  (* phase 2 — the distinct cold fits, concurrently across the pool;
     each fit is internally serial, on the shared one-job pool *)
  let tasks = List.rev !fits in
  let run rs =
    ( rs.rs_key,
      try
        Ok
          (Catalog.fit ~app:rs.rs_app.Registry.r_app ~machine:Registry.machine
             ~design:rs.rs_design ~plan:rs.rs_plan ~retry:rs.rs_retry
             ~key:rs.rs_key ())
      with Invalid_argument msg | Failure msg -> Error msg )
  in
  let results = Par.Pool.map t.pool run tasks in
  (* phase 3 — serial, in first-appearance order: memoize + charge *)
  let completed = Hashtbl.create 8 in
  List.iter
    (fun (key, res) ->
      (match res with
      | Ok e ->
          Catalog.insert t.catalog e;
          t.spent <- t.spent +. Catalog.total_core_hours e;
          Obs_metrics.set_gauge t.g_core t.spent;
          emit "serve.fit"
            [ ("key", Obs_events.Str key);
              ("app", Obs_events.Str e.Catalog.e_app);
              ("core_hours", Obs_events.Float (Catalog.total_core_hours e)) ]
      | Error _ -> ());
      Hashtbl.replace completed key res)
    results;
  (* phase 4 — deferred responses, in request order *)
  Array.iteri
    (fun i slot ->
      match slot with
      | Ready _ -> ()
      | Waiting (kind, rs, cached) ->
          let resp =
            match Hashtbl.find_opt completed rs.rs_key with
            | Some (Error msg) -> Protocol.error_line msg
            | Some (Ok e) -> answer_from_entry kind cached e
            | None -> Protocol.error_line "internal: fit result missing"
          in
          slots.(i) <- Ready resp;
          done_at.(i) <- Obs_clock.seconds_since start)
    slots;
  Array.iter (fun d -> Obs_metrics.observe t.h_latency d) done_at;
  let responses =
    Array.to_list
      (Array.map (function Ready r -> r | Waiting _ -> assert false) slots)
  in
  (responses, !shutdown)

let handle_line t line =
  match handle_batch t [ line ] with
  | [ resp ], stop -> (resp, stop)
  | _ -> assert false

(* -- sockets ------------------------------------------------------- *)

type endpoint = Unix_socket of string | Tcp of int

let endpoint_name = function
  | Unix_socket p -> p
  | Tcp port -> Printf.sprintf "127.0.0.1:%d" port

let sockaddr = function
  | Unix_socket p -> Unix.ADDR_UNIX p
  | Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let domain = function
  | Unix_socket _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

let bind_and_listen ep =
  let fd = Unix.socket (domain ep) Unix.SOCK_STREAM 0 in
  try
    (match ep with
    | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Unix_socket _ -> ());
    Unix.bind fd (sockaddr ep);
    Unix.listen fd 64;
    Ok fd
  with Unix.Unix_error (err, _, _) ->
    Unix.close fd;
    Error
      (match (ep, err) with
      | Unix_socket p, (Unix.EADDRINUSE | Unix.EEXIST) ->
          Printf.sprintf "socket %s is already in use" p
      | Tcp port, Unix.EADDRINUSE ->
          Printf.sprintf "port %d is already in use" port
      | _ ->
          Printf.sprintf "cannot bind %s: %s" (endpoint_name ep)
            (Unix.error_message err))

let bind_endpoint ep =
  match ep with
  | Tcp _ -> bind_and_listen ep
  | Unix_socket path ->
      if Sys.file_exists path then begin
        (* a live daemon, or the stale socket file of a dead one? *)
        let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let live =
          try
            Unix.connect probe (Unix.ADDR_UNIX path);
            true
          with Unix.Unix_error _ -> false
        in
        Unix.close probe;
        if live then Error (Printf.sprintf "socket %s is already in use" path)
        else begin
          (try Unix.unlink path with Unix.Unix_error _ -> ());
          bind_and_listen ep
        end
      end
      else bind_and_listen ep

let close_endpoint ep fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match ep with
  | Unix_socket p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let connect ?(attempts = 100) ep =
  let rec go n =
    let fd = Unix.socket (domain ep) Unix.SOCK_STREAM 0 in
    match Unix.connect fd (sockaddr ep) with
    | () -> Ok (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ETIMEDOUT), _, _)
      when n > 1 ->
        Unix.close fd;
        Unix.sleepf 0.05;
        go (n - 1)
    | exception Unix.Unix_error (err, _, _) ->
        Unix.close fd;
        Error
          (Printf.sprintf "cannot connect to %s: %s" (endpoint_name ep)
             (Unix.error_message err))
  in
  go (max 1 attempts)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let max_line_bytes = 1 lsl 20

let too_long_line =
  Protocol.error_line
    (Printf.sprintf "request line exceeds the limit of %d bytes" max_line_bytes)

(* A connection's unfinished line; [skipping] drops the rest of a line
   that outgrew [max_line_bytes], through its newline. *)
type conn = { pending : Buffer.t; mutable skipping : bool }

(* The first [n] bytes of [chunk] as the lines they complete, in order:
   [Some line], or [None] for a line that crossed the limit. *)
let feed c chunk n =
  let lines = ref [] in
  let rec go i =
    if i < n then begin
      let nl =
        match Bytes.index_from_opt chunk i '\n' with
        | Some j when j < n -> j
        | _ -> n
      in
      if not c.skipping then begin
        Buffer.add_subbytes c.pending chunk i (nl - i);
        if Buffer.length c.pending > max_line_bytes then begin
          Buffer.reset c.pending;
          c.skipping <- true;
          lines := None :: !lines
        end
      end;
      if nl < n then begin
        if not c.skipping then
          lines := Some (Buffer.contents c.pending) :: !lines;
        Buffer.clear c.pending;
        c.skipping <- false
      end;
      go (nl + 1)
    end
  in
  go 0;
  List.rev !lines

let serve_loop ?max_requests t listen_fd =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 8 in
  let chunk = Bytes.create 65536 in
  let handled = ref 0 in
  let stop = ref false in
  let close_conn fd =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Hashtbl.remove conns fd
  in
  (* Answer the lines in order: runs of requests drain as one batch, and
     an over-long line gets its error between them. *)
  let answer lines =
    let out = ref [] and batch = ref [] in
    let drain () =
      if !batch <> [] then begin
        let responses, shutdown = handle_batch t (List.rev !batch) in
        handled := !handled + List.length responses;
        out := List.rev_append responses !out;
        batch := [];
        if shutdown then stop := true
      end
    in
    List.iter
      (function
        | Some l -> if String.trim l <> "" then batch := l :: !batch
        | None ->
            drain ();
            incr handled;
            out := too_long_line :: !out)
      lines;
    drain ();
    (match max_requests with
    | Some m when !handled >= m -> stop := true
    | _ -> ());
    List.rev !out
  in
  while not !stop do
    let fds =
      listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
    in
    match Unix.select fds [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd ->
            if fd == listen_fd || fd = listen_fd then begin
              match Unix.accept listen_fd with
              | conn, _ ->
                  Hashtbl.replace conns conn
                    { pending = Buffer.create 256; skipping = false }
              | exception Unix.Unix_error _ -> ()
            end
            else
              match Hashtbl.find_opt conns fd with
              | None -> ()
              | Some c -> (
                  let n =
                    try Unix.read fd chunk 0 (Bytes.length chunk)
                    with Unix.Unix_error _ -> 0
                  in
                  if n = 0 then close_conn fd
                  else
                    match answer (feed c chunk n) with
                    | [] -> ()
                    | responses -> (
                        let out = String.concat "\n" responses ^ "\n" in
                        try write_all fd out 0 (String.length out)
                        with Unix.Unix_error _ -> close_conn fd)))
          ready
  done;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
    conns
