(** The perf-taint command-line interface.

    Mirrors the workflow of the original tool: run the static + dynamic
    taint analysis over a program (a bundled mini-app or a .pir file),
    inspect the per-function parameter dependencies, derive the
    instrumentation selection, fit hybrid models from simulated
    measurement campaigns, and validate experiment designs. *)

open Cmdliner

(* -- common arguments ------------------------------------------------------- *)

let trace_arg =
  let doc =
    "Write a Chrome trace (chrome://tracing / Perfetto JSON) of the \
     analysis — pipeline phases, function-call spans, loop-entry instants \
     — to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let max_steps_arg =
  let doc =
    "Interpreter instruction budget for program-running commands \
     (default: the engine's 200M steps; the fuzz oracles default to 500k)."
  in
  Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N" ~doc)

let config_of max_steps =
  Option.map
    (fun n -> { Interp.Machine.default_config with max_steps = n })
    max_steps

let jobs_arg =
  let doc =
    "Worker domains for the parallel stages (measurement coordinates, \
     model-candidate scoring, fuzz cases, cold fits).  Each stage runs one \
     loop at any value, so every value produces bit-identical output; the \
     default of 1 spawns no worker domain."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let reps_arg =
  let doc = "Repetitions per configuration." in
  Arg.(
    value
    & opt int Measure.Experiment.default_design.reps
    & info [ "reps" ] ~doc)

(* Every command maps the pipeline's expected failure modes — bad paths,
   malformed .pir files, runtime errors in user programs, exhausted step
   budgets — to a one-line stderr message and a nonzero exit, never an
   OCaml backtrace.  Unexpected exceptions still escape loudly: masking
   a genuine bug as a polite error would hide it. *)
let error_guard f =
  try `Ok (f ()) with
  | Interp.Machine.Budget_exceeded n ->
    `Error
      ( false,
        Printf.sprintf
          "interpreter instruction budget exceeded after %d steps; raise it \
           with --max-steps"
          n )
  | Interp.Machine.Runtime_error msg ->
    `Error (false, Printf.sprintf "runtime error: %s" msg)
  | Ir.Types.Ir_error msg -> `Error (false, Printf.sprintf "invalid IR: %s" msg)
  | Ir.Parser.Parse_error { line; message } ->
    `Error (false, Printf.sprintf "parse error at line %d: %s" line message)
  | Sys_error msg -> `Error (false, msg)
  | Failure msg -> `Error (false, msg)
  | Invalid_argument msg -> `Error (false, msg)

(* The program an app-taking subcommand runs: APP resolved through the
   app table, with the entry-argument (--set) and communicator-size
   (--ranks) overrides the subcommand accepts.  Unknown names and
   directories are one error line and exit 2. *)
let target ?(set = true) ?(ranks = true) () =
  let app_arg =
    let doc =
      Printf.sprintf
        "Program to analyze: a bundled mini-app (%s) or a path to a .pir \
         file."
        (String.concat ", " Apps.Registry.names)
    in
    Arg.(
      value
      & pos 0 string (List.hd Apps.Registry.names)
      & info [] ~docv:"APP" ~doc)
  in
  let ranks_arg =
    let doc = "MPI communicator size for the tainted run." in
    if ranks then Arg.(value & opt (some int) None & info [ "ranks"; "p" ] ~doc)
    else Term.const None
  in
  let params_arg =
    let doc = "Override an entry parameter, e.g. --set size=8 (repeatable)." in
    if set then
      Arg.(value & opt_all (pair ~sep:'=' string int) [] & info [ "set" ] ~doc)
    else Term.const []
  in
  let resolve name ranks params =
    match error_guard (fun () -> Apps.Registry.resolve ?ranks ~params name) with
    | `Ok (Ok t) -> `Ok t
    | `Ok (Error msg) ->
      Fmt.epr "error: %s@." msg;
      exit 2
    | `Error _ as e -> e
  in
  Term.(ret (const resolve $ app_arg $ ranks_arg $ params_arg))

(* The measurement facts of a simulated app; the other targets have
   none, and asking for them is one error line and exit 2. *)
let measured (t : Apps.Registry.t) =
  match t.measured with
  | Some m -> m
  | None ->
    Fmt.epr "error: %s has no measurement spec (use %s)@." t.name
      (String.concat ", " Serve.Registry.names);
    exit 2

(* Record the span/instant stream only when --trace was given, and dump
   it as Chrome trace JSON once [f] returns; the [disabled] sink keeps the
   flag's absence exactly the untraced code path.  An unwritable path is
   one error line and exit 2, on every subcommand. *)
let with_trace path f =
  match path with
  | None -> f Obs_trace.disabled
  | Some p ->
    let sink = Obs_trace.create () in
    let r = f sink in
    (try Obs_trace.write_file sink p
     with Sys_error msg ->
       Fmt.epr "error: cannot write trace: %s@." msg;
       exit 2);
    Fmt.epr "trace: %d events written to %s@."
      (List.length (Obs_trace.events sink))
      p;
    r

let analyze_target ?config ?metrics ?trace ?profile (t : Apps.Registry.t) =
  with_trace trace @@ fun trace ->
  Perf_taint.Pipeline.analyze ?config ?metrics ~trace ?profile ~world:t.world
    t.program ~args:t.args

let events_arg =
  let doc =
    "Write a structured JSON-lines event log to $(docv): campaign waves, \
     retries, faults, checkpoints and resumes; model-search best-so-far \
     improvements and selections; fuzz oracle summaries and \
     counterexamples.  Events carry sequence numbers instead of \
     timestamps, so the log is byte-identical across runs and across \
     $(b,--jobs) counts (parallel campaigns add their campaign.wave \
     dispatch events)."
  in
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)

(* Open the event sink only when --events was given; the [disabled] sink
   keeps every emitter a single-match no-op, so the flag's absence is
   exactly the old code path. *)
let with_events path f =
  match path with
  | None -> f Obs_events.disabled
  | Some p ->
    let sink = Obs_events.to_file ~ts:false p in
    Fun.protect
      ~finally:(fun () -> Obs_events.close sink)
      (fun () ->
        let r = f sink in
        Fmt.epr "events: %d written to %s@." (Obs_events.count sink) p;
        r)

(* -- commands ---------------------------------------------------------------- *)

let json_arg =
  let doc = "Emit the report as JSON instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let analyze_cmd =
  let run (t : Apps.Registry.t) json trace max_steps =
    error_guard @@ fun () ->
    let a = analyze_target ?config:(config_of max_steps) ?trace t in
    if json then
      print_endline
        (Obs_json.to_string
           (Perf_taint.Export.analysis_json a ~model_params:t.model_params))
    else begin
    let ov = Perf_taint.Report.overview a ~model_params:t.model_params in
    Fmt.pr "%a@.@." Perf_taint.Report.pp_overview ov;
    Fmt.pr "tainted run: %d instructions, %d taint labels@." a.steps
      (List.length (Taint.Label.sources a.labels));
    List.iter
      (fun w -> Fmt.pr "warning: %s@." w)
      a.static.Static_an.Classify.warnings;
    Fmt.pr "@.per-function dependencies:@.@[<v>%a@]@." Perf_taint.Report.pp_deps
      a
    end
  in
  let doc = "Run the static + dynamic taint analysis and print the report." in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      ret
        (const run $ target () $ json_arg $ trace_arg $ max_steps_arg))

let select_cmd =
  let run (t : Apps.Registry.t) trace max_steps =
    error_guard @@ fun () ->
    let a = analyze_target ?config:(config_of max_steps) ?trace t in
    let relevant =
      Perf_taint.Pipeline.relevant_functions a ~model_params:t.model_params
    in
    Fmt.pr "instrumentation selection (%d functions):@." (List.length relevant);
    List.iter (Fmt.pr "  %s@.") (List.sort compare relevant);
    let mpi = Perf_taint.Pipeline.mpi_routines_used a in
    Fmt.pr "MPI routines: %s@."
      (String.concat ", " (Ir.Cfg.SSet.elements mpi))
  in
  let doc = "Print the taint-derived instrumentation selection." in
  Cmd.v (Cmd.info "select" ~doc)
    Term.(ret (const run $ target () $ trace_arg $ max_steps_arg))

let print_cmd =
  let run (t : Apps.Registry.t) =
    Fmt.pr "%s@." (Ir.Pp.program_to_string t.program)
  in
  let doc = "Print the program in textual PIR syntax." in
  Cmd.v (Cmd.info "print" ~doc)
    Term.(const run $ target ~set:false ~ranks:false ())

let run_cmd =
  let run (t : Apps.Registry.t) json trace max_steps =
    error_guard @@ fun () ->
    (* A clean (shadow-free) run: the Plain-policy analogue of one
       measurement run. *)
    let module E = Interp.Compiled.Plain in
    let v, m =
      with_trace trace @@ fun trace ->
      let m = E.create ?config:(config_of max_steps) ~trace t.program in
      Mpi_sim.Runtime.install_host (module E) t.world m;
      (fst (E.run m t.args), m)
    in
    let steps = E.steps_executed m in
    let funcs =
      Interp.Observations.func_list (E.observations m)
      |> List.filter (fun fo -> fo.Interp.Observations.fo_calls > 0)
      |> List.sort (fun a b ->
             compare a.Interp.Observations.fo_func
               b.Interp.Observations.fo_func)
    in
    if json then
      print_endline
        Obs_json.(
          to_string
            (Obj
               [ ("result", Str (Fmt.str "%a" Ir.Pp.pp_value v));
                 ("steps", Int steps);
                 ( "functions",
                   List
                     (List.map
                        (fun (fo : Interp.Observations.func_obs) ->
                          Obj
                            [ ("name", Str fo.fo_func);
                              ("calls", Int fo.fo_calls);
                              ("instrs", Int fo.fo_instrs);
                              ("work", Int fo.fo_work) ])
                        funcs) ) ]))
    else begin
      Fmt.pr "result: %a (%d steps)@." Ir.Pp.pp_value v steps;
      Fmt.pr "%-36s %10s %12s %10s@." "function" "calls" "instructions"
        "work";
      List.iter
        (fun (fo : Interp.Observations.func_obs) ->
          Fmt.pr "%-36s %10d %12d %10d@." fo.fo_func fo.fo_calls fo.fo_instrs
            fo.fo_work)
        funcs
    end
  in
  let doc =
    "Execute a program through the clean (shadow-free) Plain engine and \
     print the result value, step count, and per-function statistics — \
     one measurement run, without the taint analysis."
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(ret (const run $ target () $ json_arg $ trace_arg $ max_steps_arg))

let coverage_cmd =
  let blocks_arg =
    let doc =
      "Execute the program through the Coverage policy and print dynamic \
       block/edge hit counts instead of the taint-derived parameter \
       coverage."
    in
    Arg.(value & flag & info [ "blocks" ] ~doc)
  in
  let run (t : Apps.Registry.t) blocks trace max_steps =
    error_guard @@ fun () ->
    if blocks then begin
      let module E = Interp.Compiled.Coverage in
      let m =
        with_trace trace @@ fun trace ->
        let m = E.create ?config:(config_of max_steps) ~trace t.program in
        Mpi_sim.Runtime.install_host (module E) t.world m;
        ignore (E.run m t.args);
        m
      in
      let cov = E.policy_state m in
      Fmt.pr "block coverage: %d blocks, %d edges, %d steps@."
        (Interp.Coverage_policy.blocks_covered cov)
        (Interp.Coverage_policy.edges_covered cov)
        (E.steps_executed m);
      List.iter
        (fun ((f, b), n) -> Fmt.pr "  %-28s %-12s %10d@." f b n)
        (Interp.Coverage_policy.block_hits cov)
    end
    else begin
      let a = analyze_target ?config:(config_of max_steps) ?trace t in
      let all = Ir.Cfg.SSet.elements (Perf_taint.Pipeline.observed_params a) in
      Fmt.pr "per-parameter coverage:@.";
      List.iter
        (fun (r : Perf_taint.Report.coverage_row) ->
          Fmt.pr "  %-10s functions=%3d loops=%3d@." r.cov_param r.cov_functions
            r.cov_loops)
        (Perf_taint.Report.coverage a ~params:all)
    end
  in
  let doc =
    "Print per-parameter function/loop coverage (Table 3 style), or \
     dynamic block coverage with $(b,--blocks)."
  in
  Cmd.v (Cmd.info "coverage" ~doc)
    Term.(
      ret (const run $ target () $ blocks_arg $ trace_arg $ max_steps_arg))

(* A --func naming neither a function the program defines nor one of
   the routines it [calls] is one error line naming it. *)
let check_func (t : Apps.Registry.t) ~calls what =
  Option.iter (fun f ->
      if
        not
          (List.exists (fun (g : Ir.Types.func) -> g.fname = f) t.program.funcs
          || Ir.Cfg.SSet.mem f calls)
      then failwith (Printf.sprintf "--func %s: %s %s" f t.name what))

let volume_cmd =
  let func_arg =
    let doc = "Function whose iteration volume to print (default: all)." in
    Arg.(value & opt (some string) None & info [ "func" ] ~doc)
  in
  let run (t : Apps.Registry.t) func trace max_steps =
    error_guard @@ fun () ->
    check_func t ~calls:Ir.Cfg.SSet.empty "defines no such function" func;
    let a = analyze_target ?config:(config_of max_steps) ?trace t in
    (match func with
    | Some f ->
      Fmt.pr "%-36s %s@." f
        (Perf_taint.Volume.to_string (Perf_taint.Volume.of_function a f))
    | None ->
      List.iter
        (fun (f : Ir.Types.func) ->
          let v = Perf_taint.Volume.of_function a f.Ir.Types.fname in
          if not (Perf_taint.Volume.is_constant v) then
            Fmt.pr "%-36s %s@." f.Ir.Types.fname
              (Perf_taint.Volume.to_string v))
        t.program.Ir.Types.funcs);
    Fmt.pr "@.program compute volume:@.  %s@."
      (Perf_taint.Volume.to_string (Perf_taint.Volume.of_program a))
  in
  let doc =
    "Print symbolic iteration volumes (paper Sections 4.2/4.3): the \
     scaffolding the empirical modeler parametrises."
  in
  Cmd.v (Cmd.info "volume" ~doc)
    Term.(ret (const run $ target () $ func_arg $ trace_arg $ max_steps_arg))

let mode_arg =
  let doc = "Modeling mode: tainted (hybrid) or black-box." in
  Arg.(
    value
    & opt (enum [ ("tainted", Perf_taint.Modeling.Tainted);
                  ("black-box", Perf_taint.Modeling.Black_box) ])
        Perf_taint.Modeling.Tainted
    & info [ "mode" ] ~doc)

let func_arg =
  let doc = "Function to model (default: every selected function)." in
  Arg.(value & opt (some string) None & info [ "func" ] ~doc)

let model_cmd =
  let run (t : Apps.Registry.t) mode func events trace max_steps jobs =
    error_guard @@ fun () ->
    Par.Pool.with_pool ~jobs @@ fun pool ->
    with_events events @@ fun events ->
    ignore (measured t);
    let a = analyze_target ?config:(config_of max_steps) ?trace t in
    check_func t ~calls:(Perf_taint.Pipeline.mpi_routines_used a)
      "neither defines nor calls it" func;
    let selective =
      Perf_taint.Pipeline.selection a ~model_params:t.model_params
    in
    let runs = Perf_taint.Study.campaign ~pool t selective in
    let fit fname =
      match Perf_taint.Study.fit ~pool ~events t a mode runs fname with
      | None -> Fmt.pr "  %-36s (not measured)@." fname
      | Some (r, _) ->
        Fmt.pr "  %-36s %s  (SMAPE %.1f%%)@." fname
          (Model.Expr.to_string r.Model.Search.model)
          r.Model.Search.error
    in
    Fmt.pr "%s models (%s mode):@." t.name
      (Perf_taint.Modeling.mode_name mode);
    match func with Some f -> fit f | None -> Ir.Cfg.SSet.iter fit selective
  in
  let doc =
    "Run a simulated measurement campaign and fit per-function performance \
     models."
  in
  Cmd.v (Cmd.info "model" ~doc)
    Term.(
      ret
        (const run $ target () $ mode_arg $ func_arg $ events_arg $ trace_arg
        $ max_steps_arg $ jobs_arg))

let profile_cmd =
  let interval_arg =
    let doc =
      "Steps per profiler sample.  The sampler is driven by the executed \
       instruction count, not a clock, so the profile is bit-identical \
       across runs and machines."
    in
    Arg.(
      value
      & opt int Obs_profile.default_interval
      & info [ "interval" ] ~docv:"N" ~doc)
  in
  let top_arg =
    let doc = "Rows in the sampling-profile table." in
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc)
  in
  let flame_arg =
    let doc =
      "Write collapsed call stacks (one 'main;solve;spmv 42' line per \
       sampled path) to $(docv) — loadable by flamegraph.pl, inferno or \
       speedscope."
    in
    Arg.(value & opt (some string) None & info [ "flame" ] ~docv:"FILE" ~doc)
  in
  let run (t : Apps.Registry.t) interval top flame json trace max_steps =
    error_guard @@ fun () ->
    let prof = Obs_profile.create ~interval () in
    let a =
      analyze_target ?config:(config_of max_steps) ?trace ~profile:prof t
    in
    let snap = Obs_profile.snapshot prof in
    (match flame with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Obs_profile.folded_of_snapshot snap);
      close_out oc;
      Fmt.epr "flamegraph: %d call paths written to %s@."
        (List.length snap.Obs_profile.ps_paths)
        path);
    if json then print_endline (Obs_json.to_string (Obs_profile.to_json prof))
    else begin
      let rows =
        Interp.Observations.func_list a.Perf_taint.Pipeline.obs
        |> List.sort (fun x y ->
               compare y.Interp.Observations.fo_instrs
                 x.Interp.Observations.fo_instrs)
      in
      Fmt.pr "%-36s %10s %12s %10s@." "function" "calls" "instructions" "work";
      List.iter
        (fun (fo : Interp.Observations.func_obs) ->
          Fmt.pr "%-36s %10d %12d %10d@." fo.fo_func fo.fo_calls fo.fo_instrs
            fo.fo_work)
        rows;
      Fmt.pr "@.total interpreted instructions: %d@.@." a.steps;
      Fmt.pr "%a" (Obs_profile.pp_table ~top) snap
    end
  in
  let doc =
    "Profile the tainted run: exact per-function statistics plus a \
     deterministic sampling profile (every $(b,--interval) executed \
     steps) with top-N table, JSON and collapsed-stacks flamegraph \
     export."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      ret
        (const run $ target () $ interval_arg $ top_arg $ flame_arg $ json_arg
        $ trace_arg $ max_steps_arg))

let stats_cmd =
  let run (t : Apps.Registry.t) json trace max_steps =
    error_guard @@ fun () ->
    let metrics = Obs_metrics.create () in
    let a = analyze_target ?config:(config_of max_steps) ~metrics ?trace t in
    if json then
      print_endline (Obs_json.to_string (Perf_taint.Export.stats_json a))
    else begin
      Fmt.pr "self-profile: %s@.@." t.program.Ir.Types.pname;
      Fmt.pr "phase timings:@.";
      List.iter
        (fun (phase, s) -> Fmt.pr "  %-12s %12.6f s@." phase s)
        (Perf_taint.Pipeline.phases a);
      Fmt.pr "@.label table:@.";
      Fmt.pr "  %-12s %12d@." "labels"
        (List.length (Taint.Label.sources a.labels));
      Fmt.pr "@.metrics:@.%a" Obs_metrics.pp_summary a.snapshot
    end
  in
  let doc =
    "Self-profile of the analysis: phase timings (static / tainted run / \
     post-processing), instruction counts by opcode class, memory and \
     shadow traffic, label-table size.  The overhead the paper \
     amortizes against the measurement campaign, measured on our own \
     pipeline."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(ret (const run $ target () $ json_arg $ trace_arg $ max_steps_arg))

let contention_cmd =
  let run (t : Apps.Registry.t) trace max_steps =
    error_guard @@ fun () ->
    ignore (measured t);
    let a = analyze_target ?config:(config_of max_steps) ?trace t in
    let selective =
      Perf_taint.Pipeline.selection a ~model_params:t.model_params
    in
    let _, count, findings = Perf_taint.Study.contention t a selective in
    Fmt.pr
      "%d of %d measured functions grow with ranks-per-node although taint \
       proves they cannot:@."
      (List.length findings) count;
    List.iter
      (fun (f : Perf_taint.Validation.contention_finding) ->
        Fmt.pr "  %-36s %s@." f.cf_func (Model.Expr.to_string f.cf_model))
      findings
  in
  let doc =
    "Sweep ranks-per-node at a fixed configuration and report functions      whose growth contradicts the taint analysis (Figure 5 / C1)."
  in
  Cmd.v (Cmd.info "contention" ~doc)
    Term.(ret (const run $ target () $ trace_arg $ max_steps_arg))

let design_cmd =
  let run (t : Apps.Registry.t) reps trace max_steps =
    error_guard @@ fun () ->
    let a = analyze_target ?config:(config_of max_steps) ?trace t in
    (* Five-point axes over every parameter the program declares. *)
    let entry =
      Ir.Types.find_func t.program t.program.Ir.Types.entry
    in
    let axes =
      List.map
        (fun p -> { Perf_taint.Design.param = p; values = [ 1.; 2.; 4.; 8.; 16. ] })
        ("p" :: entry.Ir.Types.fparams)
    in
    let plan = Perf_taint.Design.propose a ~axes ~reps in
    Fmt.pr "%a@." Perf_taint.Design.pp_plan plan
  in
  let doc =
    "Propose an experiment design from the taint results: which parameters      to fix, sweep alone, or sweep jointly (A1/A2)."
  in
  Cmd.v (Cmd.info "design" ~doc)
    Term.(ret (const run $ target () $ reps_arg $ trace_arg $ max_steps_arg))

let validate_cmd =
  let at_arg =
    let doc = "Rank count to analyze at (repeatable), e.g. --at 4 --at 32." in
    Arg.(value & opt_all int [ 4; 32 ] & info [ "at" ] ~doc)
  in
  let run (t : Apps.Registry.t) ats max_steps =
    error_guard @@ fun () ->
    let runs =
      List.map
        (fun p ->
          Perf_taint.Pipeline.analyze
            ?config:(config_of max_steps)
            ~world:{ Mpi_sim.Runtime.ranks = p; rank = 0 }
            t.program ~args:t.args)
        ats
    in
    let findings =
      Perf_taint.Validation.validate_design ~model_params:[ "p" ] runs
    in
    if findings = [] then
      Fmt.pr "no qualitative behavior changes across p in {%s}@."
        (String.concat ", " (List.map string_of_int ats))
    else begin
      Fmt.pr "%d parameter-dependent branches change behavior:@."
        (List.length findings);
      List.iter
        (fun (f : Perf_taint.Validation.design_finding) ->
          Fmt.pr "  %s/%s on {%s}: %s@." f.df_func f.df_block
            (String.concat "," f.df_params)
            (String.concat " "
               (List.map
                  (fun (_, b) -> Perf_taint.Validation.behavior_name b)
                  f.df_behaviors)))
        findings
    end
  in
  let doc = "Compare taint runs across rank counts (C2-style validation)." in
  Cmd.v (Cmd.info "validate" ~doc)
    Term.(ret (const run $ target ~ranks:false () $ at_arg $ max_steps_arg))

let campaign_cmd =
  let faults_arg =
    let doc =
      "Fault plan, e.g. crash=0.05,hang=0.02,straggler=0.03,corrupt=0.02,\
       persistent=0.1,attempts=2,seed=7 (all keys optional; empty = no \
       faults)."
    in
    Arg.(value & opt string "" & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let retries_arg =
    let doc = "Total attempts per run coordinate (including the first)." in
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc = "Initial retry backoff in simulated seconds (doubles per retry)." in
    Arg.(value & opt float 30. & info [ "backoff" ] ~docv:"S" ~doc)
  in
  let journal_arg =
    let doc = "Checkpoint journal file (JSON lines, one record per run)." in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    let doc = "Resume from the journal instead of starting over." in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let max_runs_arg =
    let doc =
      "Stop (deliberately interrupted) after $(docv) newly executed \
       coordinates; resume later with --resume."
    in
    Arg.(value & opt (some int) None & info [ "max-runs" ] ~docv:"N" ~doc)
  in
  let dump_arg =
    let doc =
      "Write the final dataset as deterministic JSON lines to $(docv) — \
       byte-comparable across resumed and uninterrupted campaigns."
    in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)
  in
  let sigma_arg =
    let doc = "Relative measurement noise level." in
    Arg.(
      value
      & opt float Measure.Experiment.default_design.sigma
      & info [ "sigma" ] ~doc)
  in
  let seed_arg =
    let doc = "Measurement-noise seed of the design." in
    Arg.(
      value
      & opt int Measure.Experiment.default_design.seed
      & info [ "seed" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc =
      "Coordinator mode: partition the campaign into $(docv) shards by \
       deterministic coordinate hash, run each as a supervised worker \
       process (restarted with --resume on death), and merge the shard \
       journals into --journal.  The merged campaign is bit-identical \
       to a single-process run."
    in
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"M" ~doc)
  in
  let shard_arg =
    let doc =
      "Worker mode: execute only the coordinates shard $(docv) (as K/M) \
       owns, journaling to --journal.  Spawned by --shards, or run by \
       hand to produce shard journals elsewhere."
    in
    Arg.(value & opt (some string) None & info [ "shard" ] ~docv:"K/M" ~doc)
  in
  let shard_timeout_arg =
    let doc =
      "Wall-clock seconds a shard worker may run before the coordinator \
       kills and restarts it."
    in
    Arg.(
      value & opt float 600. & info [ "shard-timeout" ] ~docv:"S" ~doc)
  in
  let shard_restarts_arg =
    let doc = "Restarts per shard before the coordinator gives up." in
    Arg.(value & opt int 3 & info [ "shard-restarts" ] ~docv:"N" ~doc)
  in
  let kill_shard_arg =
    let doc =
      "Testing hook: make shard $(i,K)'s first launch stop after $(i,N) \
       coordinates (as K=N, repeatable), simulating a mid-shard worker \
       death; the coordinator must detect the short journal and \
       restart/resume it."
    in
    Arg.(
      value
      & opt_all (pair ~sep:'=' int int) []
      & info [ "kill-shard" ] ~docv:"K=N" ~doc)
  in
  let run (t : Apps.Registry.t) faults retries backoff journal resume
      max_runs dump reps sigma seed shards shard_spec shard_timeout
      shard_restarts kill_shards events trace jobs =
    error_guard @@ fun () ->
    let { Apps.Registry.spec; grid; _ } = measured t in
    let plan =
      match Measure.Fault.of_spec faults with
      | Ok p -> p
      | Error msg -> failwith msg
    in
    if resume && journal = None then
      failwith "--resume requires --journal FILE";
    let worker =
      match shard_spec with
      | None -> None
      | Some s -> (
        match Measure.Shard.of_spec s with
        | Ok t -> Some t
        | Error msg -> failwith msg)
    in
    (match (worker, shards) with
    | Some _, Some _ -> failwith "--shard and --shards are mutually exclusive"
    | _ -> ());
    (match shards with
    | Some m when m < 1 -> failwith "--shards must be >= 1"
    | _ -> ());
    if (shards <> None || worker <> None) && journal = None then
      failwith "--shards/--shard requires --journal FILE";
    if shards <> None && max_runs <> None then
      failwith "--max-runs is a worker-side limit; it cannot be combined \
                with --shards (use --kill-shard to inject one)";
    if shards <> None && resume then
      failwith "--resume cannot be combined with --shards: the coordinator \
                starts every shard afresh and resumes only the workers it \
                restarts";
    if kill_shards <> [] && shards = None then
      failwith "--kill-shard requires --shards";
    let design =
      { Measure.Experiment.grid; reps; mode = Measure.Instrument.Full; sigma;
        seed }
    in
    let retry =
      { Measure.Campaign.default_retry with
        Measure.Campaign.rt_max_attempts = retries;
        rt_backoff_s = backoff }
    in
    (* before any journal is written or shard worker spawned *)
    Measure.Campaign.check_design ~retry design;
    Par.Pool.with_pool ~jobs @@ fun pool ->
    with_events events @@ fun events ->
    match worker with
    | Some sh ->
      (* Worker mode: journal only the coordinates this shard owns and
         stop — the coordinator merges, reports, and fits. *)
      let j = Option.get journal in
      let report =
        with_trace trace @@ fun trace ->
        Measure.Campaign.run_journaled ~pool ~trace ~events ~plan ~retry
          ~keep:(fun params rep -> Measure.Shard.owns sh ~params ~rep)
          ?limit:max_runs ~journal:j ~resume spec
          Mpi_sim.Machine.skylake_cluster design
      in
      Fmt.pr "shard %s: %d record(s) (%d resumed%s) journaled to %s@."
        (Measure.Shard.spec_of sh)
        (List.length report.Measure.Campaign.cp_records)
        report.Measure.Campaign.cp_resumed
        (if report.Measure.Campaign.cp_interrupted then ", interrupted"
         else "")
        j
    | None ->
    let report =
      with_trace trace @@ fun trace ->
      match (shards, journal) with
      | Some m, Some j ->
        (* Coordinator mode: one worker process per shard (same binary,
           same campaign flags), merged into [j] in global design order. *)
        let header =
          Measure.Campaign.header_line ~app_name:spec.Measure.Spec.aname
            ~plan ~retry design
        in
        let argv ~shard ~journal:jpath ~resume =
          Array.of_list
            ([ Sys.executable_name; "campaign"; t.name;
               "--faults"; faults;
               "--retries"; string_of_int retries;
               "--backoff"; Printf.sprintf "%.17g" backoff;
               "--reps"; string_of_int reps;
               "--sigma"; Printf.sprintf "%.17g" sigma;
               "--seed"; string_of_int seed;
               "--jobs"; string_of_int jobs;
               "--shard"; Measure.Shard.spec_of shard;
               "--journal"; jpath ]
            @
            if resume then [ "--resume" ]
            else
              match List.assoc_opt shard.Measure.Shard.sh_index kill_shards with
              | Some n -> [ "--max-runs"; string_of_int n ]
              | None -> [])
        in
        (match
           Measure.Shard.coordinate ~events ~header ~design ~shards:m
             ~journal:j ~timeout_s:shard_timeout ~max_restarts:shard_restarts
             (Measure.Shard.process argv)
         with
        | Error msg -> failwith msg
        | Ok mg ->
          Fmt.epr "shards: %d journal(s) merged into %s (%d duplicate \
                   record(s) dropped, %d torn line(s) skipped)@."
            mg.Measure.Shard.mg_journals j mg.Measure.Shard.mg_duplicates
            mg.Measure.Shard.mg_torn;
          Measure.Campaign.summarize ~resumed:0 ~interrupted:false
            mg.Measure.Shard.mg_records)
      | Some _, None -> assert false (* checked above *)
      | None, Some j ->
        Measure.Campaign.run_journaled ~pool ~trace ~events ~plan ~retry
          ?limit:max_runs ~journal:j ~resume spec
          Mpi_sim.Machine.skylake_cluster design
      | None, None ->
        Measure.Campaign.run ~pool ~trace ~events ~plan ~retry
          ?limit:max_runs spec Mpi_sim.Machine.skylake_cluster design
    in
    Fmt.pr "%s campaign (faults: %s)@." t.name
      (if Measure.Fault.total_rate plan = 0. then "none"
       else Measure.Fault.spec_of plan);
    Fmt.pr "@[<v>%a@]@." Measure.Campaign.pp_report report;
    let gaps =
      Perf_taint.Validation.grid_gaps ~design report.Measure.Campaign.cp_runs
    in
    Fmt.pr "@[<v>%a@]@." Perf_taint.Validation.pp_gap_report gaps;
    (match dump with
    | None -> ()
    | Some path ->
      Obs_json.write_lines path
        (List.map Measure.Campaign.run_to_line report.Measure.Campaign.cp_runs);
      Fmt.pr "dataset: %d runs dumped to %s@."
        (List.length report.Measure.Campaign.cp_runs)
        path);
    if report.Measure.Campaign.cp_interrupted then
      Fmt.pr "interrupted by --max-runs; continue with --resume@."
    else begin
      let fit, rejected =
        Measure.Campaign.total_fit ~pool design
          report.Measure.Campaign.cp_runs
      in
      Fmt.pr "total model (robust fit, %d outliers rejected): %s  (SMAPE \
              %.1f%%)@."
        rejected
        (Model.Expr.to_string fit.Model.Search.model)
        fit.Model.Search.error
    end
  in
  let doc =
    "Execute a fault-injected simulated measurement campaign with \
     retry/backoff and a checkpoint journal, then fit an outlier-robust \
     total-runtime model from whatever survived."
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      ret
        (const run $ target ~set:false ~ranks:false () $ faults_arg
        $ retries_arg $ backoff_arg $ journal_arg $ resume_arg $ max_runs_arg
        $ dump_arg $ reps_arg $ sigma_arg $ seed_arg $ shards_arg $ shard_arg
        $ shard_timeout_arg $ shard_restarts_arg $ kill_shard_arg $ events_arg
        $ trace_arg $ jobs_arg))

let fuzz_cmd =
  let seed_arg =
    let doc =
      "PRNG seed for the campaign (also settable via $(b,FUZZ_SEED))."
    in
    Arg.(value & opt int (Fuzz.Seed.get ()) & info [ "seed" ] ~docv:"N" ~doc)
  in
  let budget_arg =
    let doc = "Number of random programs to generate and check." in
    Arg.(value & opt int 2000 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let corpus_arg =
    let doc = "Directory where minimized counterexamples are saved." in
    Arg.(value & opt string "fuzz-corpus" & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let replay_arg =
    let doc =
      "Corpus .pir files to replay against every oracle instead of running \
       a campaign."
    in
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let run seed budget corpus files events max_steps jobs =
    error_guard @@ fun () ->
    let config =
      Option.map
        (fun n -> { Fuzz.Oracle.interp_config with max_steps = n })
        max_steps
    in
    match files with
    | _ :: _ ->
      let failed = ref 0 in
      List.iter
        (fun file ->
          Fmt.pr "replay %s:@." file;
          List.iter
            (fun (name, verdict) ->
              match verdict with
              | Fuzz.Oracle.Pass -> Fmt.pr "  %-18s ok@." name
              | Fuzz.Oracle.Fail msg ->
                incr failed;
                Fmt.pr "  %-18s FAIL: %s@." name msg)
            (Fuzz.Driver.replay_file ?config file))
        files;
      if !failed > 0 then exit 1
    | [] ->
      Par.Pool.with_pool ~jobs @@ fun pool ->
      with_events events @@ fun events ->
      let report =
        Fuzz.Driver.run_campaign ~pool ?config ~events ~seed ~budget ()
      in
      Fmt.pr "fuzz campaign: seed %d, budget %d@." seed budget;
      List.iter
        (fun (r : Fuzz.Driver.oracle_result) ->
          match r.or_cx with
          | None -> Fmt.pr "  %-18s %5d programs, ok@." r.or_name r.or_runs
          | Some cx ->
            Fmt.pr "  %-18s %5d programs, FAIL at program %d@." r.or_name
              r.or_runs cx.cx_index)
        report.rp_results;
      let cxs = Fuzz.Driver.counterexamples report in
      if cxs <> [] then begin
        List.iter
          (fun (cx : Fuzz.Driver.counterexample) ->
            let path = Fuzz.Driver.save ~dir:corpus ~seed cx in
            Fmt.pr "@.%s: %s@." cx.cx_oracle cx.cx_message;
            Fmt.pr "minimized to %d lines, saved to %s:@.%s@." cx.cx_lines path
              cx.cx_text)
          cxs;
        exit 1
      end
  in
  let doc =
    "Fuzz the pipeline with random PIR programs checked against 13 \
     differential and metamorphic oracles: taint soundness under \
     parameter perturbation, printer/parser round trip, \
     validator/interpreter agreement, static vs dynamic trip counts, \
     observability invariance, Taint-vs-Plain policy agreement, \
     compiled-tier vs interpreter identity, coverage accounting, \
     fault-free campaign identity, campaign recovery from transient \
     faults, parallel-vs-serial campaign and search identity, \
     sharded-vs-single campaign identity, and served-model identity.  \
     Counterexamples are minimized and saved to the corpus; pass corpus \
     files to replay them."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      ret
        (const run $ seed_arg $ budget_arg $ corpus_arg $ replay_arg
        $ events_arg $ max_steps_arg $ jobs_arg))

let report_cmd =
  let bench_files_arg =
    let doc = "BENCH_<exp>.json result files (from the bench runner)." in
    Arg.(value & pos_all string [] & info [] ~docv:"BENCH" ~doc)
  in
  let baselines_arg =
    let doc =
      "Directory of committed baseline BENCH_*.json files; same-named \
       results gain baseline and delta columns."
    in
    Arg.(
      value & opt (some string) None & info [ "baselines" ] ~docv:"DIR" ~doc)
  in
  let journal_report_arg =
    let doc = "Campaign checkpoint journal to summarize." in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let stats_arg =
    let doc = "A $(b,stats --json) snapshot to include." in
    Arg.(value & opt (some string) None & info [ "stats" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Write the markdown report to $(docv) instead of stdout." in
    Arg.(
      value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run files baselines journal stats out =
    error_guard @@ fun () ->
    let md =
      Measure.Bench_report.report ?baselines_dir:baselines ?journal ?stats
        ~bench_files:files ()
    in
    match out with
    | None -> print_string md
    | Some path ->
      let oc = open_out path in
      output_string oc md;
      close_out oc;
      Fmt.epr "report written to %s@." path
  in
  let doc =
    "Merge bench results, a campaign journal and a metrics snapshot into \
     one markdown report, with deltas against committed baselines."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      ret
        (const run $ bench_files_arg $ baselines_arg $ journal_report_arg
        $ stats_arg $ out_arg))

(* -- serve / query ----------------------------------------------------------- *)

let socket_arg =
  let doc = "Listen on (or connect to) the Unix socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Listen on (or connect to) TCP 127.0.0.1:$(docv)." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let endpoint_of socket port =
  match (socket, port) with
  | Some p, None -> Serve.Server.Unix_socket p
  | None, Some p -> Serve.Server.Tcp p
  | Some _, Some _ -> failwith "--socket and --port are mutually exclusive"
  | None, None -> failwith "give --socket PATH or --port PORT"

let serve_cmd =
  let catalog_arg =
    let doc =
      "Catalog directory holding the model index ($(docv)/catalog.jsonl); \
       must exist.  A restarted daemon pointed at the same directory \
       serves every previously fitted model without refitting."
    in
    Arg.(
      required & opt (some string) None & info [ "catalog" ] ~docv:"DIR" ~doc)
  in
  let capacity_arg =
    let doc = "Decoded entries held by the in-memory LRU." in
    Arg.(
      value
      & opt int Serve.Catalog.default_capacity
      & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let budget_arg =
    let doc =
      "Simulated core-hour admission budget: once cold fits have charged \
       this much (runs + wasted attempts + backoff), further misses are \
       refused with a one-line error while hits keep being served."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "max-core-hours" ] ~docv:"HOURS" ~doc)
  in
  let max_requests_arg =
    let doc = "Stop after handling $(docv) request lines (tests/CI)." in
    Arg.(
      value & opt (some int) None & info [ "max-requests" ] ~docv:"N" ~doc)
  in
  let run socket port catalog capacity budget max_requests jobs events =
    error_guard @@ fun () ->
    let ep = endpoint_of socket port in
    let metrics = Obs_metrics.create () in
    Par.Pool.with_pool ~jobs @@ fun pool ->
    with_events events @@ fun events ->
    let cat =
      match
        Serve.Catalog.open_ ~metrics ~events ~capacity ~dir:catalog ()
      with
      | Ok c -> c
      | Error msg -> failwith msg
    in
    Fun.protect ~finally:(fun () -> Serve.Catalog.close cat) @@ fun () ->
    let server =
      Serve.Server.create ~pool ~metrics ~events ?max_core_hours:budget
        ~catalog:cat ()
    in
    let fd =
      match Serve.Server.bind_endpoint ep with
      | Ok fd -> fd
      | Error msg -> failwith msg
    in
    Fmt.epr "serve: listening on %s (catalog %s, %d entries)@."
      (Serve.Server.endpoint_name ep)
      (Serve.Catalog.index_path cat)
      (Serve.Catalog.length cat);
    Fun.protect ~finally:(fun () -> Serve.Server.close_endpoint ep fd)
    @@ fun () -> Serve.Server.serve_loop ?max_requests server fd
  in
  let doc =
    "Run the model-serving daemon: line-delimited JSON requests \
     ($(b,predict), $(b,fit), $(b,invalidate), $(b,stats), $(b,shutdown)) \
     over a Unix or TCP socket, answered from a content-addressed catalog \
     of memoized fits (see doc/SERVE.md).  Cache-hit answers are \
     bit-identical to cold fits."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ socket_arg $ port_arg $ catalog_arg $ capacity_arg
        $ budget_arg $ max_requests_arg $ jobs_arg $ events_arg))

let query_cmd =
  let requests_arg =
    let doc =
      "Request lines to send (JSON objects); with none, lines are read \
       from stdin."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"REQUEST" ~doc)
  in
  let attempts_arg =
    let doc =
      "Connection attempts, 50 ms apart (the daemon may still be \
       starting)."
    in
    Arg.(value & opt int 100 & info [ "attempts" ] ~docv:"N" ~doc)
  in
  let run socket port requests attempts =
    error_guard @@ fun () ->
    let ep = endpoint_of socket port in
    let requests =
      match requests with
      | [] ->
        let rec go acc =
          match input_line stdin with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go []
      | rs -> rs
    in
    let requests = List.filter (fun l -> String.trim l <> "") requests in
    if requests = [] then failwith "no requests to send";
    let ic, oc =
      match Serve.Server.connect ~attempts ep with
      | Ok c -> c
      | Error msg -> failwith msg
    in
    List.iter
      (fun r ->
        output_string oc r;
        output_char oc '\n')
      requests;
    flush oc;
    List.iter
      (fun _ ->
        match input_line ic with
        | line -> print_endline line
        | exception End_of_file ->
          failwith "connection closed before all responses arrived")
      requests;
    close_out_noerr oc
  in
  let doc =
    "Send request lines to a running $(b,serve) daemon and print one \
     JSON response line per request."
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      ret (const run $ socket_arg $ port_arg $ requests_arg $ attempts_arg))

let main_cmd =
  let doc = "tainted performance modeling (Perf-Taint reproduction)" in
  Cmd.group (Cmd.info "perf-taint" ~version:"1.0.0" ~doc)
    [ analyze_cmd; select_cmd; run_cmd; coverage_cmd; volume_cmd; print_cmd;
      model_cmd; campaign_cmd; profile_cmd; stats_cmd; contention_cmd;
      design_cmd; validate_cmd; fuzz_cmd; report_cmd; serve_cmd; query_cmd ]

let () = exit (Cmd.eval main_cmd)
