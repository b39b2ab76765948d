(** Resilient measurement campaigns: execute an {!Experiment.design}
    under a {!Fault.plan} with retries, exponential backoff, a
    JSON-lines checkpoint journal, and a post-mortem report.

    The executor walks the design's run coordinates in exactly the order
    {!Experiment.run_design} does (configurations in grid order,
    repetitions innermost).  Per coordinate it loops attempts: a crash
    wastes half the run's wall time and is retried after a backoff; a
    hang burns the configured timeout before the harness kills it (the
    kill is modelled as the engine's [Budget_exceeded], raised and caught
    in the retry loop); stragglers and corrupt timers *complete* with
    inflated durations, which is precisely why the fitting layer needs
    outlier rejection — the campaign cannot tell a slow node from a slow
    configuration.  Under the empty fault plan the executor collapses to
    the same [Simulator.measure] calls with the same arguments as
    [run_design], so a fault-free campaign is bit-identical to the plain
    experiment (a fuzz oracle holds us to that).

    The journal makes campaigns restartable: one header line pinning the
    campaign identity (app, design, fault plan, retry policy), then one
    JSON object per finished coordinate.  Resuming replays finished
    records from the journal instead of re-measuring, then continues
    with the live executor — and because faults and noise are both
    deterministic in the coordinates, the resumed campaign's dataset is
    bit-identical to an uninterrupted one. *)

(* -- retry policy ---------------------------------------------------------- *)

type retry = {
  rt_max_attempts : int;     (** total attempts per coordinate, >= 1 *)
  rt_backoff_s : float;      (** backoff before the first retry, seconds *)
  rt_backoff_mult : float;   (** exponential backoff multiplier *)
  rt_hang_timeout_s : float; (** wall time a hung run burns before the kill *)
}

let default_retry =
  { rt_max_attempts = 3; rt_backoff_s = 30.; rt_backoff_mult = 2.;
    rt_hang_timeout_s = 300. }

(* -- per-coordinate records ------------------------------------------------ *)

type outcome =
  | Completed of Simulator.run
  | Abandoned of string  (** fault kind that exhausted the attempts *)

type record = {
  rc_params : Spec.params;
  rc_rep : int;
  rc_attempts : int;        (** attempts consumed, >= 1 *)
  rc_faults : string list;  (** fault kind per attempt that was hit, in order *)
  rc_wasted_s : float;      (** wall seconds burned by failed attempts *)
  rc_backoff_s : float;     (** wall seconds spent backing off *)
  rc_outcome : outcome;
}

type report = {
  cp_records : record list;       (** design order *)
  cp_runs : Simulator.run list;   (** completed runs only, design order *)
  cp_attempts : int;
  cp_retries : int;
  cp_faults : (string * int) list;  (** per {!Fault.kind_names}, all four *)
  cp_abandoned : int;
  cp_resumed : int;               (** coordinates restored from a journal *)
  cp_interrupted : bool;          (** stopped early by [limit] *)
  cp_wasted_core_hours : float;
  cp_backoff_core_hours : float;
}

let completed_run r =
  match r.rc_outcome with Completed run -> Some run | Abandoned _ -> None

(* The campaign.* metrics vocabulary; doc/OBSERVABILITY.md lists exactly
   these (a drift test compares). *)
let counters =
  [
    ("campaign.attempts", "measurement attempts executed, retries included");
    ("campaign.retries", "failed attempts that were retried after a backoff");
    ("campaign.abandoned", "run coordinates given up after exhausting attempts");
    ("campaign.resumed", "run coordinates restored from a checkpoint journal");
    ("campaign.faults.crash", "injected crashes (run died, no data)");
    ("campaign.faults.hang", "injected hangs killed by the step-budget timeout");
    ("campaign.faults.straggler", "runs kept with straggler-inflated durations");
    ("campaign.faults.corrupt", "runs kept with corrupted outlier durations");
    ("campaign.journal_torn", "torn trailing journal lines skipped on load");
    ("campaign.shard_dup", "duplicate coordinates dropped by the shard merge");
  ]

(* The campaign.* event vocabulary (structured JSON-lines stream);
   doc/OBSERVABILITY.md lists exactly these (a drift test compares). *)
let event_names =
  [
    ("campaign.record", "a run coordinate finished: params, rep, attempts, outcome");
    ("campaign.fault", "an injected fault hit one attempt of a coordinate");
    ("campaign.resume", "a coordinate was restored from the checkpoint journal");
    ("campaign.wave", "a wave of fresh coordinates was dispatched to the pool");
    ("campaign.checkpoint", "a finished record was flushed to the journal");
    ("campaign.journal_torn", "a torn trailing journal line was skipped on load");
  ]

(* -- executor -------------------------------------------------------------- *)

let coordinates design =
  List.concat_map
    (fun params -> List.init design.Experiment.reps (fun rep -> (params, rep)))
    (Experiment.configs design)

let scale_run factor (r : Simulator.run) =
  {
    r with
    Simulator.rn_kernels =
      List.map
        (fun (km : Simulator.kernel_measurement) ->
          {
            km with
            Simulator.km_per_call = km.Simulator.km_per_call *. factor;
            km_total = km.Simulator.km_total *. factor;
          })
        r.Simulator.rn_kernels;
    rn_total = r.Simulator.rn_total *. factor;
  }

let core_hours_of ~params seconds =
  seconds *. float_of_int (Simulator.ranks_of params) /. 3600.

(* One coordinate under the retry loop: its record, plus the run as
   measured (before any straggler/corrupt inflation), which is what the
   sim.* metrics count.  The measurement itself is only performed on
   attempts the fault plan lets through; failed attempts probe the run's
   would-be duration (uncounted — the probe is costing, not measuring) to
   charge wasted core-hours. *)
let execute_coordinate ~trace ~plan ~retry ~hang_budget app machine design
    ~params ~rep =
  let fault = Fault.at plan ~params ~rep in
  let probe_total =
    lazy
      (Simulator.measure ~sigma:design.Experiment.sigma
         ~seed:design.Experiment.seed ~rep app machine ~params
         ~mode:design.Experiment.mode)
        .Simulator.rn_total
  in
  let attempts = ref 0 in
  let faults = ref [] in
  let wasted = ref 0. in
  let backoff = ref 0. in
  let rec attempt n =
    incr attempts;
    let span_args =
      if Obs_trace.enabled trace then
        [ ("rep", Obs_trace.Int rep); ("attempt", Obs_trace.Int n) ]
      else []
    in
    (* The attempt body runs inside one span; the retry recursion stays
       outside it so the trace shows one span per attempt. *)
    let result =
      Obs_trace.with_span trace ~cat:"campaign" ~args:span_args
        "campaign.attempt" (fun () ->
          let active_kind =
            Option.bind fault (fun f -> Fault.active f ~attempt:n)
          in
          match active_kind with
          | Some Fault.Crash ->
            (* The run died partway through: on average half the wall
               time is burned before the node goes down. *)
            `Failed (Fault.Crash, 0.5 *. Lazy.force probe_total)
          | Some Fault.Hang -> (
            (* The run never terminates; the harness's per-run step budget
               expires and kills it.  The kill is the engine's budget trap —
               raised here, caught by the same handler that would catch a
               genuine runaway replay. *)
            try raise (Interp.Machine.Budget_exceeded hang_budget)
            with Interp.Machine.Budget_exceeded _ ->
              `Failed (Fault.Hang, retry.rt_hang_timeout_s))
          | (Some (Fault.Straggler _ | Fault.Corrupt _) | None) as k ->
            (* The run completes (possibly with inflated durations):
               measure with the exact arguments run_design uses, so the
               fault-free path is bit-identical to the plain experiment. *)
            let run =
              Simulator.measure ~sigma:design.Experiment.sigma
                ~seed:design.Experiment.seed ~rep app machine ~params
                ~mode:design.Experiment.mode
            in
            `Completed
              ( run,
                match k with
                | Some (Fault.Straggler f as kind)
                | Some (Fault.Corrupt f as kind) ->
                  faults := Fault.kind_name kind :: !faults;
                  scale_run f run
                | _ -> run ))
    in
    match result with
    | `Completed (measured, run) -> (Completed run, Some measured)
    | `Failed (kind, waste) ->
      (* A failed attempt: record the fault, charge the waste, and either
         back off and retry or abandon the coordinate. *)
      faults := Fault.kind_name kind :: !faults;
      wasted := !wasted +. waste;
      if n + 1 < retry.rt_max_attempts then begin
        backoff :=
          !backoff
          +. (retry.rt_backoff_s *. (retry.rt_backoff_mult ** float_of_int n));
        attempt (n + 1)
      end
      else (Abandoned (Fault.kind_name kind), None)
  in
  let outcome, measured = attempt 0 in
  ( {
      rc_params = params;
      rc_rep = rep;
      rc_attempts = !attempts;
      rc_faults = List.rev !faults;
      rc_wasted_s = !wasted;
      rc_backoff_s = !backoff;
      rc_outcome = outcome;
    },
    measured )

let summarize ~resumed ~interrupted records =
  let fault_counts =
    List.map
      (fun k ->
        ( k,
          List.fold_left
            (fun acc r ->
              acc + List.length (List.filter (String.equal k) r.rc_faults))
            0 records ))
      Fault.kind_names
  in
  {
    cp_records = records;
    cp_runs = List.filter_map completed_run records;
    cp_attempts = List.fold_left (fun acc r -> acc + r.rc_attempts) 0 records;
    cp_retries =
      List.fold_left (fun acc r -> acc + (r.rc_attempts - 1)) 0 records;
    cp_faults = fault_counts;
    cp_abandoned =
      List.length
        (List.filter
           (fun r ->
             match r.rc_outcome with Abandoned _ -> true | Completed _ -> false)
           records);
    cp_resumed = resumed;
    cp_interrupted = interrupted;
    cp_wasted_core_hours =
      List.fold_left
        (fun acc r -> acc +. core_hours_of ~params:r.rc_params r.rc_wasted_s)
        0. records;
    cp_backoff_core_hours =
      List.fold_left
        (fun acc r -> acc +. core_hours_of ~params:r.rc_params r.rc_backoff_s)
        0. records;
  }

(* Every campaign.* counter is a function of finished records, counted on
   the submitting domain in design order: [rc_attempts] attempts, one
   retry per non-final attempt, one fault per entry of [rc_faults]
   (failed attempts and kept straggler/corrupt completions alike), one
   abandonment if the outcome is [Abandoned].  The whole vocabulary is
   interned first, so a registry shows every counter, at zero when
   nothing was hit. *)
let intern_counters reg =
  List.iter (fun (name, _) -> ignore (Obs_metrics.counter reg name)) counters

let replay_metrics reg r =
  intern_counters reg;
  let add name n = Obs_metrics.add (Obs_metrics.counter reg name) n in
  add "campaign.attempts" r.rc_attempts;
  add "campaign.retries" (r.rc_attempts - 1);
  List.iter (fun kind -> add ("campaign.faults." ^ kind) 1) r.rc_faults;
  match r.rc_outcome with
  | Abandoned _ -> add "campaign.abandoned" 1
  | Completed _ -> ()

(* Events, like counters, are a function of the finished record, emitted
   from the submitting domain in design order: the stream is the same at
   every job count, apart from the wave events above one job. *)
let params_str params =
  String.concat ";"
    (List.map (fun (n, v) -> Printf.sprintf "%s=%g" n v) params)

let record_events events r =
  if Obs_events.enabled events then begin
    List.iteri
      (fun i kind ->
        Obs_events.emit events ~severity:Obs_events.Warn ~component:"campaign"
          ~fields:
            [
              ("params", Obs_events.Str (params_str r.rc_params));
              ("rep", Obs_events.Int r.rc_rep);
              ("attempt", Obs_events.Int i);
              ("kind", Obs_events.Str kind);
            ]
          "campaign.fault")
      r.rc_faults;
    Obs_events.emit events ~component:"campaign"
      ~fields:
        [
          ("params", Obs_events.Str (params_str r.rc_params));
          ("rep", Obs_events.Int r.rc_rep);
          ("attempts", Obs_events.Int r.rc_attempts);
          ( "outcome",
            Obs_events.Str
              (match r.rc_outcome with
              | Completed _ -> "completed"
              | Abandoned reason -> "abandoned:" ^ reason) );
        ]
      "campaign.record"
  end

let emit_resume_event events r =
  if Obs_events.enabled events then
    Obs_events.emit events ~component:"campaign"
      ~fields:
        [
          ("params", Obs_events.Str (params_str r.rc_params));
          ("rep", Obs_events.Int r.rc_rep);
        ]
      "campaign.resume"

(* Reject a retry policy at entry, naming the offending field: a
   negative backoff or a sub-1 multiplier would silently *shrink* the
   backoff accounting, and a non-positive hang timeout would credit
   hangs with zero waste.  The comparisons are written negated so NaN
   fields are rejected too. *)
let validate_retry retry =
  if retry.rt_max_attempts < 1 then
    invalid_arg "Measure.Campaign.run: rt_max_attempts must be >= 1";
  if not (retry.rt_backoff_s >= 0.) then
    invalid_arg "Measure.Campaign.run: rt_backoff_s must be >= 0";
  if not (retry.rt_backoff_mult >= 1.) then
    invalid_arg "Measure.Campaign.run: rt_backoff_mult must be >= 1";
  if not (retry.rt_hang_timeout_s > 0.) then
    invalid_arg "Measure.Campaign.run: rt_hang_timeout_s must be > 0"

let check_design ~retry design =
  validate_retry retry;
  Experiment.check_design design

let run ?(pool = Par.Pool.serial) ?metrics ?(trace = Obs_trace.disabled)
    ?(events = Obs_events.disabled) ?(plan = Fault.none)
    ?(retry = default_retry) ?(hang_budget = 1_000_000)
    ?(done_ : record list = []) ?(keep = fun _ _ -> true) ?limit ?on_record
    app machine design =
  check_design ~retry design;
  (* The campaign counter matches run_design's, so a fault-free campaign
     leaves the sim.* metrics in exactly the run_design state. *)
  Option.iter
    (fun reg ->
      Obs_metrics.incr (Obs_metrics.counter reg "sim.campaigns");
      intern_counters reg)
    metrics;
  let restored = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace restored (r.rc_params, r.rc_rep) r) done_;
  (* The walk: restored records as met, fresh coordinates until the
     (limit+1)-th, which interrupts the campaign.  [keep] narrows it to a
     subset of the design (shard workers pass their ownership predicate);
     everything downstream — limit, resume, journal order — sees only the
     kept coordinates. *)
  let limit_met executed =
    match limit with Some l -> executed >= l | None -> false
  in
  let rec walk executed acc = function
    | [] -> (List.rev acc, false)
    | (params, rep) :: rest -> (
      match Hashtbl.find_opt restored (params, rep) with
      | Some r -> walk executed (`Restored r :: acc) rest
      | None when limit_met executed -> (List.rev acc, true)
      | None -> walk (executed + 1) (`Fresh (params, rep) :: acc) rest)
  in
  let items, interrupted =
    walk 0 []
      (List.filter (fun (params, rep) -> keep params rep) (coordinates design))
  in
  (* Waves: the next [Par.Pool.wave pool] fresh coordinates, with the
     restored records among and after them riding along.  The wave runs
     on the pool; then every shared effect happens here, on the
     submitting domain, in design order: resume accounting, metrics and
     events derived from each measured run and finished record, and
     [on_record] (the journal writer).  Records, journals and registries
     are therefore the same at every job count, and a kill loses at most
     the in-flight wave — one coordinate on a one-job pool. *)
  let execute = function
    | `Restored r -> `Restored r
    | `Fresh (params, rep) ->
      `Done
        (execute_coordinate ~trace ~plan ~retry ~hang_budget app machine
           design ~params ~rep)
  in
  let resumed = ref 0 in
  let records = ref [] in
  let commit = function
    | `Restored r ->
      incr resumed;
      Option.iter
        (fun reg ->
          Obs_metrics.incr (Obs_metrics.counter reg "campaign.resumed"))
        metrics;
      emit_resume_event events r;
      records := r :: !records
    | `Done (r, measured) ->
      Option.iter
        (fun reg ->
          Option.iter (Simulator.count reg) measured;
          replay_metrics reg r)
        metrics;
      record_events events r;
      Option.iter (fun f -> f r) on_record;
      records := r :: !records
  in
  let rec split n wave = function
    | `Fresh _ :: _ as rest when n = 0 -> (List.rev wave, rest)
    | (`Fresh _ as it) :: rest -> split (n - 1) (it :: wave) rest
    | (`Restored _ as it) :: rest -> split n (it :: wave) rest
    | [] -> (List.rev wave, [])
  in
  let rec waves idx = function
    | [] -> ()
    | pending ->
      let wave, rest = split (Par.Pool.wave pool) [] pending in
      let fresh =
        List.length (List.filter (function `Fresh _ -> true | _ -> false) wave)
      in
      if Par.Pool.jobs pool > 1 && fresh > 0 && Obs_events.enabled events then
        Obs_events.emit events ~severity:Obs_events.Debug ~component:"campaign"
          ~fields:
            [ ("wave", Obs_events.Int idx); ("fresh", Obs_events.Int fresh) ]
          "campaign.wave";
      List.iter commit (Par.Pool.map pool ~chunk:1 execute wave);
      waves (idx + 1) rest
  in
  waves 0 items;
  summarize ~resumed:!resumed ~interrupted (List.rev !records)

(* -- journal --------------------------------------------------------------- *)

let journal_magic = "perf-taint-campaign-journal"
let journal_version = 1

module J = Obs_json

let ( let* ) = Result.bind

let json_of_params params =
  J.List (List.map (fun (n, v) -> J.List [ J.Str n; J.Float v ]) params)

let params_of_json j =
  let* items = J.list j in
  J.each
    (function
      | J.List [ J.Str n; v ] -> Result.map (fun f -> (n, f)) (J.float v)
      | _ -> Error "expected [name, value] pairs")
    items

let json_of_run (r : Simulator.run) =
  J.Obj
    [
      ("rpn", J.Int r.Simulator.rn_ranks_per_node);
      ( "kernels",
        J.List
          (List.map
             (fun (km : Simulator.kernel_measurement) ->
               J.Obj
                 [
                   ("name", J.Str km.Simulator.km_name);
                   ("calls", J.Float km.Simulator.km_calls);
                   ("per_call", J.Float km.Simulator.km_per_call);
                   ("total", J.Float km.Simulator.km_total);
                 ])
             r.Simulator.rn_kernels) );
      ("total", J.Float r.Simulator.rn_total);
      ("base_total", J.Float r.Simulator.rn_base_total);
    ]

(** One completed run as a single deterministic JSON line — the CLI's
    [--dump] format, byte-comparable across invocations. *)
let run_to_line (r : Simulator.run) =
  J.to_string
    (J.Obj
       [
         ("params", json_of_params r.Simulator.rn_params);
         ("rep", J.Int r.Simulator.rn_rep);
         ("run", json_of_run r);
       ])

let kernel_of_json kj =
  let* km_name = J.field "name" J.str kj in
  let* km_calls = J.field "calls" J.float kj in
  let* km_per_call = J.field "per_call" J.float kj in
  let* km_total = J.field "total" J.float kj in
  Ok { Simulator.km_name; km_calls; km_per_call; km_total }

let run_of_json ~params ~rep ~mode j =
  let* rn_ranks_per_node = J.field "rpn" J.int j in
  let* kernels = J.field "kernels" J.list j in
  let* rn_kernels = J.each kernel_of_json kernels in
  let* rn_total = J.field "total" J.float j in
  let* rn_base_total = J.field "base_total" J.float j in
  Ok
    {
      Simulator.rn_params = params;
      rn_mode = mode;
      rn_rep = rep;
      rn_ranks_per_node;
      rn_kernels;
      rn_total;
      rn_base_total;
    }

let record_to_line r =
  let base =
    [
      ("params", json_of_params r.rc_params);
      ("rep", J.Int r.rc_rep);
      ("attempts", J.Int r.rc_attempts);
      ("faults", J.List (List.map (fun f -> J.Str f) r.rc_faults));
      ("wasted_s", J.Float r.rc_wasted_s);
      ("backoff_s", J.Float r.rc_backoff_s);
    ]
  in
  let outcome =
    match r.rc_outcome with
    | Completed run ->
      [ ("outcome", J.Str "completed"); ("run", json_of_run run) ]
    | Abandoned reason ->
      [ ("outcome", J.Str "abandoned"); ("reason", J.Str reason) ]
  in
  J.to_string (J.Obj (base @ outcome))

let record_of_line ~mode line =
  Result.map_error (fun msg -> "bad journal line: " ^ msg)
  @@
  let* j = J.parse line in
  let* rc_params = J.field "params" params_of_json j in
  let* rc_rep = J.field "rep" J.int j in
  let* rc_attempts = J.field "attempts" J.int j in
  let* faults = J.field "faults" J.list j in
  let* rc_faults = J.each (J.within "field \"faults\"" J.str) faults in
  let* rc_wasted_s = J.field "wasted_s" J.float j in
  let* rc_backoff_s = J.field "backoff_s" J.float j in
  let* outcome = J.field "outcome" J.str j in
  let* rc_outcome =
    match outcome with
    | "completed" ->
      Result.map
        (fun run -> Completed run)
        (J.field "run" (run_of_json ~params:rc_params ~rep:rc_rep ~mode) j)
    | "abandoned" ->
      Result.map
        (fun reason -> Abandoned reason)
        (J.field_or "reason" "unknown" J.str j)
    | o -> Error (Printf.sprintf "unknown outcome %S" o)
  in
  Ok
    {
      rc_params;
      rc_rep;
      rc_attempts;
      rc_faults;
      rc_wasted_s;
      rc_backoff_s;
      rc_outcome;
    }

(* The header pins everything that decides the campaign's content;
   resuming under a different design / plan / policy would silently mix
   incompatible measurements, so it is an error instead. *)
let header_line ~app_name ~plan ~retry (design : Experiment.design) =
  J.to_string
    (J.Obj
       [
         ("journal", J.Str journal_magic);
         ("version", J.Int journal_version);
         ("app", J.Str app_name);
         ( "design",
           J.Obj
             [
               ( "grid",
                 J.List
                   (List.map
                      (fun (n, vs) ->
                        J.List
                          [
                            J.Str n; J.List (List.map (fun v -> J.Float v) vs);
                          ])
                      design.Experiment.grid) );
               ("reps", J.Int design.Experiment.reps);
               ("mode", J.Str (Instrument.mode_name design.Experiment.mode));
               ("sigma", J.Float design.Experiment.sigma);
               ("seed", J.Int design.Experiment.seed);
             ] );
         ("faults", J.Str (Fault.spec_of plan));
         ( "retry",
           J.Obj
             [
               ("max_attempts", J.Int retry.rt_max_attempts);
               ("backoff_s", J.Float retry.rt_backoff_s);
               ("backoff_mult", J.Float retry.rt_backoff_mult);
               ("hang_timeout_s", J.Float retry.rt_hang_timeout_s);
             ] );
       ])

let load_journal ~mode ~expected_header path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  match List.rev !lines with
  | [] -> Error (path ^ ": empty journal")
  | header :: body ->
    if String.trim header <> expected_header then
      Error
        (path
       ^ ": journal header does not match this campaign (different app, \
          design, fault plan, or retry policy)")
    else
      (* A parse failure on the *last* nonempty line is a torn write — a
         worker killed mid-flush leaves a partial final record — and is
         skipped (the coordinate is simply re-executed on resume).  A
         failure anywhere earlier is genuine corruption and stays an
         error: silently dropping an interior record would desynchronize
         the resumed campaign from the design walk. *)
      let body = List.filter (fun l -> String.trim l <> "") body in
      let rec go acc = function
        | [] -> Ok (List.rev acc, 0)
        | [ last ] -> (
          match record_of_line ~mode last with
          | Ok r -> Ok (List.rev (r :: acc), 0)
          | Error _ -> Ok (List.rev acc, 1))
        | line :: rest -> (
          match record_of_line ~mode line with
          | Ok r -> go (r :: acc) rest
          | Error e -> Error (path ^ ": " ^ e))
      in
      go [] body

let run_journaled ?pool ?metrics ?trace ?(events = Obs_events.disabled) ?plan
    ?retry ?hang_budget ?keep ?limit ~journal ~resume app machine design =
  let plan_v = Option.value ~default:Fault.none plan in
  let retry_v = Option.value ~default:default_retry retry in
  check_design ~retry:retry_v design;
  let header =
    header_line ~app_name:app.Spec.aname ~plan:plan_v ~retry:retry_v design
  in
  let existing, torn =
    if resume && Sys.file_exists journal then
      match
        load_journal ~mode:design.Experiment.mode ~expected_header:header
          journal
      with
      | Ok (records, torn) -> (records, torn)
      | Error e -> failwith e
    else ([], 0)
  in
  if torn > 0 then begin
    (match metrics with
    | None -> ()
    | Some reg ->
      Obs_metrics.add (Obs_metrics.counter reg "campaign.journal_torn") torn);
    if Obs_events.enabled events then
      Obs_events.emit events ~severity:Obs_events.Warn ~component:"campaign"
        ~fields:
          [ ("journal", Obs_events.Str journal);
            ("lines", Obs_events.Int torn) ]
        "campaign.journal_torn"
  end;
  let oc =
    if existing <> [] && torn = 0 then
      open_out_gen [ Open_append; Open_creat ] 0o644 journal
    else begin
      (* Fresh journal, or a torn tail to cut off: rewrite header plus
         the surviving records.  Records round-trip exactly, so the
         rewritten prefix is byte-identical to the original clean one
         and appending continues the canonical journal. *)
      let oc = open_out journal in
      output_string oc header;
      output_char oc '\n';
      List.iter
        (fun r ->
          output_string oc (record_to_line r);
          output_char oc '\n')
        existing;
      flush oc;
      oc
    end
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      run ?pool ?metrics ?trace ~events ?plan ?retry ?hang_budget
        ~done_:existing ?keep ?limit
        ~on_record:(fun r ->
          output_string oc (record_to_line r);
          output_char oc '\n';
          (* Flush per record: the journal must survive a kill at any
             point with only the in-flight coordinate lost. *)
          flush oc;
          if Obs_events.enabled events then
            Obs_events.emit events ~severity:Obs_events.Debug
              ~component:"campaign"
              ~fields:
                [
                  ("params", Obs_events.Str (params_str r.rc_params));
                  ("rep", Obs_events.Int r.rc_rep);
                ]
              "campaign.checkpoint")
        app machine design)

let total_fit ?pool (design : Experiment.design) runs =
  let params =
    List.filter_map
      (fun (p, vs) -> if List.length vs > 1 then Some p else None)
      design.Experiment.grid
  in
  let config = { Model.Search.default_config with Model.Search.pool } in
  Model.Search.multi_robust ~config (Experiment.total_dataset runs ~params)

(* -- report rendering ------------------------------------------------------ *)

let pp_report ppf r =
  let fault_total = List.fold_left (fun acc (_, n) -> acc + n) 0 r.cp_faults in
  Fmt.pf ppf "campaign: %d runs, %d attempts, %d retries, %d abandoned%s@,"
    (List.length r.cp_runs) r.cp_attempts r.cp_retries r.cp_abandoned
    (if r.cp_interrupted then " (interrupted)" else "");
  if r.cp_resumed > 0 then
    Fmt.pf ppf "resumed from journal: %d runs@," r.cp_resumed;
  if fault_total > 0 then
    Fmt.pf ppf "faults: %a@,"
      (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (k, n) -> Fmt.pf ppf "%s=%d" k n))
      (List.filter (fun (_, n) -> n > 0) r.cp_faults);
  Fmt.pf ppf "wasted %.3f core-hours, %.3f core-hours of backoff"
    r.cp_wasted_core_hours r.cp_backoff_core_hours
