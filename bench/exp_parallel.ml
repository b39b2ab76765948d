(** Extension experiment: multicore wall-clock of the three stages that
    run on the {!Par.Pool} domain scheduler — measurement campaigns,
    model-candidate scoring, and fuzz checking — at 1/2/4/8 workers.

    Every parallel run is structurally compared against the one-job
    reference *before* its time is reported: the pool is allowed to buy
    wall-clock, never different answers, so a mismatch fails the whole
    experiment.  Speedups are hardware-dependent; on a single-core
    container every ratio sits near 1.0x and the efficiency column shows
    only the scheduling tax.  CI runners with real cores are where the
    headline numbers come from. *)

module Exp = Measure.Experiment
module Camp = Measure.Campaign
module Fault = Measure.Fault
module Instr = Measure.Instrument
module J = Obs_json

let machine = Mpi_sim.Machine.skylake_cluster
let jobs_axis = [ 1; 2; 4; 8 ]

(* Best-of-N: the minimum over repetitions is the robust estimator
   against scheduler noise (same policy as the micro benchmarks). *)
let best_of n f =
  let r = ref None and best = ref infinity in
  for _ = 1 to n do
    let v, dt = Obs_clock.with_timer f in
    if dt < !best then best := dt;
    r := Some v
  done;
  (Option.get !r, !best)

let mismatches = ref 0

(* One stage: time it on the shared one-job pool (the jobs=1 row and the
   reference), then on a pool at each other point of the jobs axis,
   comparing results structurally each time. *)
let stage ~reps name f =
  let reference, t1 = best_of reps (fun () -> f Par.Pool.serial) in
  let rows =
    List.map
      (fun j ->
        if j = 1 then (1, t1, true)
        else
          Par.Pool.with_pool ~jobs:j (fun pool ->
              let v, t = best_of reps (fun () -> f pool) in
              (j, t, compare reference v = 0)))
      jobs_axis
  in
  Fmt.pr "  %s:@." name;
  List.iter
    (fun (j, t, ok) ->
      let s = t1 /. t in
      if not ok then incr mismatches;
      Fmt.pr "    jobs=%d  %9.6f s  speedup %5.2fx  efficiency %3.0f%%%s@." j t
        s
        (s /. float_of_int j *. 100.)
        (if ok then "" else "  << NOT BIT-IDENTICAL TO SERIAL"))
    rows;
  ( name,
    List.map
      (fun (j, t, ok) ->
        J.Obj
          [
            ("jobs", J.Int j);
            ("seconds", J.Float t);
            ("speedup", J.Float (t1 /. t));
            ("efficiency", J.Float (t1 /. t /. float_of_int j));
            ("identical", J.Bool ok);
          ])
      rows )

let run () =
  Exp_common.section "parallel: domain-pool speedup at 1/2/4/8 workers";
  let design = Exp_common.lulesh_design ~mode:Instr.Full in
  let app = Apps.Lulesh_spec.app in
  let retry = { Camp.default_retry with Camp.rt_max_attempts = 3 } in
  let plan =
    { Fault.none with
      Fault.fp_seed = 11; fp_crash = 0.05; fp_hang = 0.03; fp_persistent = 0.;
      fp_transient_attempts = 2 }
  in
  let campaign =
    stage ~reps:3 "campaign (lulesh, 5% transient faults)" (fun pool ->
        Camp.run ~pool ~plan ~retry app machine design)
  in
  (* Model search scores every candidate hypothesis against the same
     dataset — the classic embarrassingly parallel inner loop. *)
  let runs = Exp.run_design app machine design in
  let data = Exp.total_dataset runs ~params:[ "p"; "size" ] in
  let search =
    stage ~reps:5 "model search (robust total fit, extended hypothesis space)"
      (fun pool ->
        Model.Search.multi_robust
          ~config:{ Model.Search.extended_config with Model.Search.pool = Some pool }
          data)
  in
  (* Fuzzing: the program-shaped oracles only (the campaign-shaped ones
     spawn their own pools, which belongs to the fuzz suite, not a
     timing harness). Generation is serial either way; checks fan out. *)
  let oracles =
    [ Fuzz.Oracle.printer_roundtrip; Fuzz.Oracle.validator_interp;
      Fuzz.Oracle.tripcount; Fuzz.Oracle.taint_vs_plain;
      Fuzz.Oracle.coverage_consistency ]
  in
  let fuzz =
    stage ~reps:3 "fuzz checking (5 oracles, 60 programs)" (fun pool ->
        Fuzz.Driver.run_campaign ~pool ~oracles ~seed:7 ~budget:60 ())
  in
  let cores =
    match Sys.getenv_opt "NPROC" with
    | Some s -> (try int_of_string s with _ -> 1)
    | None -> Domain.recommended_domain_count ()
  in
  Exp_common.note "host reports %d recommended domain(s)" cores;
  Exp_common.emit_json ~name:"parallel"
    [
      ("recommended_domains", J.Int cores);
      ( "stages",
        J.List
          (List.map
             (fun (name, rows) ->
               J.Obj [ ("stage", J.Str name); ("runs", J.List rows) ])
             [ campaign; search; fuzz ]) );
    ];
  if !mismatches > 0 then begin
    Fmt.epr "parallel: %d run(s) were not bit-identical to serial@."
      !mismatches;
    exit 1
  end
