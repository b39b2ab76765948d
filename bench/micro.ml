(** Bechamel microbenchmarks of the infrastructure itself: taint-label
    operations, a full tainted run of a didactic program, trip-count
    analysis, and PMNF model search. *)

module Sim = Measure.Simulator
module Instr = Measure.Instrument
module Exp = Measure.Experiment
module Camp = Measure.Campaign
module Fault = Measure.Fault

(* [open Bechamel] below shadows [Measure] (bechamel ships a module of
   that name), so the JSON writer needs its alias taken here. *)
module J = Obs_json

open Bechamel
open Toolkit

let label_union_test =
  Test.make ~name:"label-union"
    (Staged.stage (fun () ->
         let tbl = Taint.Label.create () in
         let a = Taint.Label.base tbl "a" in
         let b = Taint.Label.base tbl "b" in
         let c = Taint.Label.base tbl "c" in
         let ab = Taint.Label.union a b in
         ignore (Taint.Label.union ab c)))

let tainted_run_test =
  Test.make ~name:"tainted-run-iterate"
    (Staged.stage (fun () ->
         let m = Interp.Machine.create Apps.Didactic.iterate_example in
         ignore (Interp.Machine.run m [ Ir.Types.VInt 10; Ir.Types.VInt 2 ])))

(* The same program through the Plain (shadow-free) policy: the gap to
   the tainted run above is the interpreter-level instrumentation
   overhead the paper's one-tainted-run economy avoids paying per
   measurement. *)
let plain_run_test =
  Test.make ~name:"plain-run-iterate"
    (Staged.stage (fun () ->
         let m = Interp.Plain.create Apps.Didactic.iterate_example in
         ignore (Interp.Plain.run m [ Ir.Types.VInt 10; Ir.Types.VInt 2 ])))

(* Same run with per-instruction metrics on: the pair quantifies the
   observability overhead (the disabled path above must stay flat). *)
let tainted_run_metrics_test =
  Test.make ~name:"tainted-run-iterate-metrics"
    (Staged.stage (fun () ->
         let reg = Obs_metrics.create () in
         let m =
           Interp.Machine.create ~metrics:reg Apps.Didactic.iterate_example
         in
         ignore (Interp.Machine.run m [ Ir.Types.VInt 10; Ir.Types.VInt 2 ])))

let counter_incr_test =
  let reg = Obs_metrics.create () in
  let c = Obs_metrics.counter reg "bench.counter" in
  Test.make ~name:"obs-counter-incr"
    (Staged.stage (fun () -> Obs_metrics.incr c))

let trace_span_test =
  let sink = Obs_trace.create () in
  Test.make ~name:"obs-trace-span"
    (Staged.stage (fun () ->
         Obs_trace.span_begin sink "bench";
         Obs_trace.span_end sink "bench"))

let tripcount_test =
  Test.make ~name:"static-tripcount-lulesh"
    (Staged.stage (fun () ->
         List.iter
           (fun f -> ignore (Static_an.Tripcount.analyze_function f))
           Apps.Lulesh.program.Ir.Types.funcs))

let pmnf_search_test =
  let samples =
    List.map (fun x -> (x, 1. +. (0.5 *. x *. sqrt x))) [ 4.; 8.; 16.; 32.; 64. ]
  in
  Test.make ~name:"pmnf-single-search"
    (Staged.stage (fun () -> ignore (Model.Search.single ~param:"p" samples)))

let full_analysis_test =
  Test.make ~name:"full-taint-analysis-lulesh"
    (Staged.stage (fun () ->
         ignore
           (Perf_taint.Pipeline.analyze ~world:Apps.Lulesh.taint_world
              Apps.Lulesh.program ~args:Apps.Lulesh.taint_args)))

let simulator_test =
  Test.make ~name:"simulated-run-lulesh"
    (Staged.stage (fun () ->
         ignore
           (Sim.measure Apps.Lulesh_spec.app Mpi_sim.Machine.skylake_cluster
              ~params:[ ("p", 64.); ("size", 30.) ]
              ~mode:Instr.Full)))

let tests =
  Test.make_grouped ~name:"perf-taint"
    [ label_union_test; tainted_run_test; plain_run_test;
      tainted_run_metrics_test; counter_incr_test; trace_span_test;
      tripcount_test; pmnf_search_test; simulator_test; full_analysis_test ]

(* -- taint vs plain policy overhead on the mini-app kernels ---------------- *)

(* Best-of-N wall timing of an interleaved pair: the minimum over
   repetitions is the standard robust estimator against scheduler noise,
   and alternating the two variants makes both sample the same noise
   environment so the ratio survives load drift. *)
let best_of_pair n f g =
  let time h = snd (Obs_clock.with_timer h) in
  let bf = ref infinity and bg = ref infinity in
  for _ = 1 to n do
    let dt = time f in
    if dt < !bf then bf := dt;
    let dt = time g in
    if dt < !bg then bg := dt
  done;
  (!bf, !bg)

let policy_kernels =
  [
    ("lulesh", Apps.Lulesh.program, Apps.Lulesh.taint_args,
     Apps.Lulesh.taint_world);
    ("minicg", Apps.Minicg.program, Apps.Minicg.taint_args,
     Apps.Minicg.taint_world);
  ]

(* One fresh engine per run, so the compiled tier pays its lowering cost
   inside the timed region — the fair comparison for one-shot analyses. *)
let engine_runner (type a) (module E : Interp.Engine.S with type t = a)
    program args world () =
  let m = E.create program in
  Mpi_sim.Runtime.install_host (module E) world m;
  ignore (E.run m args)

let pr_geomean = Exp_common.geomean

(* Minor words allocated per executed step by one compiled run: a
   deterministic count (unlike the timings).  Under the Taint policy it
   stays flat in input size while the control-scope list stays bounded
   by the frame's joins. *)
let words_per_step (type a) (module E : Interp.Engine.S with type t = a)
    program args world =
  let m = E.create program in
  Mpi_sim.Runtime.install_host (module E) world m;
  let w0 = Gc.minor_words () in
  ignore (E.run m args);
  (Gc.minor_words () -. w0) /. float_of_int (E.steps_executed m)

(* The instrumentation-overhead story (paper Table 3) on our substrate,
   crossed with the execution tier: each mini-app runs under the Taint
   and Plain policies on both the tree-walking interpreter and the
   slot-resolved compiled engine, and the report pairs each policy's
   interpreted run against its compiled run. *)
let policy_speedup () =
  Exp_common.section "policy overhead: taint vs plain (interp vs compiled)";
  let series (name, program, args, world) =
    let ti = engine_runner (module Interp.Machine) program args world in
    let tc = engine_runner (module Interp.Compiled.Taint) program args world in
    let pi = engine_runner (module Interp.Plain) program args world in
    let pc = engine_runner (module Interp.Compiled.Plain) program args world in
    (* Warm up allocators and caches, then start timing from a compact
       heap: the bechamel phase above leaves major-GC debt behind that
       would otherwise be paid unevenly across the timed runs. *)
    ti (); tc (); pi (); pc ();
    let wps =
      ( words_per_step (module Interp.Compiled.Taint) program args world,
        words_per_step (module Interp.Compiled.Plain) program args world )
    in
    Gc.compact ();
    (name, ti, tc, pi, pc, wps)
  in
  (* Timing each tier's run as an interleaved pair measures the tier
     speedup under shared noise. *)
  let rows =
    List.map
      (fun kernel ->
        let name, ti, tc, pi, pc, wps = series kernel in
        let tti, ttc = best_of_pair 9 ti tc in
        let tpi, tpc = best_of_pair 9 pi pc in
        Fmt.pr
          "  %-10s taint  interp %9.6f s   compiled %9.6f s   speedup \
           %5.2fx@."
          name tti ttc (tti /. ttc);
        Fmt.pr
          "  %-10s plain  interp %9.6f s   compiled %9.6f s   speedup \
           %5.2fx@."
          "" tpi tpc (tpi /. tpc);
        Fmt.pr "  %-10s taint  compiled minor words per step %.2f@." ""
          (fst wps);
        Fmt.pr "  %-10s plain  compiled minor words per step %.2f@." ""
          (snd wps);
        (name, tti, ttc, tpi, tpc, wps))
      policy_kernels
  in
  let g_taint =
    pr_geomean (List.map (fun (_, ti, tc, _, _, _) -> ti /. tc) rows)
  and g_plain =
    pr_geomean (List.map (fun (_, _, _, pi, pc, _) -> pi /. pc) rows)
  and g_overhead =
    pr_geomean (List.map (fun (_, _, tc, _, pc, _) -> tc /. pc) rows)
  in
  Fmt.pr "  compiled-over-interp speedup (geomean): plain %.2fx, taint \
          %.2fx@."
    g_plain g_taint;
  Fmt.pr "  taint-over-plain overhead on the compiled tier (geomean): \
          %.2fx@."
    g_overhead;
  Exp_common.emit_json ~name:"policy"
    [
      ("engine", J.Str "both");
      ( "kernels",
        J.List
          (List.map
             (fun (name, tti, ttc, tpi, tpc, wps) ->
               J.Obj
                 [
                   ("kernel", J.Str name);
                   ("taint_interp_s", J.Float tti);
                   ("taint_compiled_s", J.Float ttc);
                   ("plain_interp_s", J.Float tpi);
                   ("plain_compiled_s", J.Float tpc);
                   ("taint_speedup", J.Float (tti /. ttc));
                   ("plain_speedup", J.Float (tpi /. tpc));
                   ("taint_words_per_step", J.Float (fst wps));
                   ("plain_words_per_step", J.Float (snd wps));
                 ])
             rows) );
      ("geomean_plain_speedup", J.Float g_plain);
      ("geomean_taint_speedup", J.Float g_taint);
      ("geomean_taint_over_plain", J.Float g_overhead);
      ("plain_target_met", J.Bool (g_plain >= 5.));
      ("taint_target_met", J.Bool (g_taint >= 2.));
      ("taint_over_plain_target_met", J.Bool (g_overhead <= 2.));
    ]

(* -- model search: cost per candidate and the size-3 kernel ---------------- *)

(* The grid shapes a model-e2e pass searches with the default menu: the
   five values of one axis, the nine-point ranks-per-node sweep of a
   contention check, and a collapsed 5x5 grid, where [Search.multi]
   hands [single] each of five values five times.  The observations are
   a planted c + c*x^1.5 with a small fixed wobble, so repeated x values
   differ and no fit is exact. *)
let search_axis = [ 8.; 27.; 64.; 216.; 729. ]

let search_shapes =
  [
    ("5-point", search_axis);
    ("9-point", [ 2.; 4.; 6.; 8.; 10.; 12.; 14.; 16.; 18. ]);
    ( "25-point",
      List.concat_map (fun x -> List.init 5 (fun _ -> x)) search_axis );
  ]

let search_samples xs =
  List.mapi
    (fun i x ->
      (x, 1. +. (0.5 *. x *. sqrt x) +. (0.01 *. float_of_int (i mod 7))))
    xs

(* [xs] shifted by one: samples whose search evicts the basis of [xs]'s. *)
let shifted_samples xs = search_samples (List.map (fun x -> x +. 1.) xs)

(* Hypotheses scored and minor words allocated per hypothesis by one
   single-parameter search on [samples], after a first search on
   [before] has grown the domain's basis and scratch: a deterministic
   count.  With [before] = [samples] the second search reuses the basis,
   as the searches of a model-e2e pass mostly do; with the shifted
   samples it evaluates every term afresh. *)
let search_words ~before samples =
  ignore (Model.Search.single ~param:"p" before);
  let w0 = Gc.minor_words () in
  let r = Model.Search.single ~param:"p" samples in
  let words = Gc.minor_words () -. w0 in
  (r.Model.Search.hypotheses_tried, words /. float_of_int r.hypotheses_tried)

(* The time of searches that reuse the basis over searches that rebuild
   it: [xs] twice in a row, against [xs] shifted by one and then [xs],
   which evict each other's basis. *)
let reuse_ratio xs =
  let samples = search_samples xs and shifted = shifted_samples xs in
  let search s () = ignore (Model.Search.single ~param:"p" s) in
  let reused () = search samples (); search samples ()
  and fresh () = search shifted (); search samples () in
  let tr, tf = best_of_pair 9 reused fresh in
  tr /. tf

(* [n] normal systems XᵀX c = Xᵀy of random two-term hypotheses from the
   default menu over the 5-point axis, summed in [Linalg.least_squares]'s
   order and laid out as one batch of [Linalg.solve_sym3]: entry j of
   system s (a00, a01, a02, a11, a12, a22, b0, b1, b2) at [j * n + s]. *)
let normal_systems n =
  let rng = Random.State.make [| 42 |] in
  let expos = Array.of_list Model.Search.default_config.exponents in
  let term () =
    let expo = expos.(Random.State.int rng (Array.length expos)) in
    { Model.Expr.expo; logexp = Random.State.int rng 3 }
  in
  let src = Array.make (9 * n) 0. in
  for s = 0 to n - 1 do
    let t1 = term () in
    let t2 = term () in
    List.iter
      (fun (x, y) ->
        let row =
          [| 1.; Model.Expr.eval_simple t1 x; Model.Expr.eval_simple t2 x |]
        in
        let add j v = src.((j * n) + s) <- src.((j * n) + s) +. v in
        List.iteri
          (fun j (a, b) -> add j (row.(a) *. row.(b)))
          [ (0, 0); (0, 1); (0, 2); (1, 1); (1, 2); (2, 2) ];
        for i = 0 to 2 do
          add (6 + i) (row.(i) *. y)
        done)
      (search_samples search_axis)
  done;
  src

(* Nanoseconds per system of [Linalg.solve_sym3], solving all [n] systems
   in one call, and of what the search does for the other sizes, copying
   each system into a scratch matrix for [solve_in_place], over the same
   systems, interleaved in one process so that their ratio holds on any
   host. *)
let solver_times n =
  let src = normal_systems n and offs = Array.init 9 (fun j -> j * n) in
  (* The generic path's offset table, a_ij row by row then b. *)
  let full =
    Array.map (fun j -> offs.(j)) [| 0; 1; 2; 1; 3; 4; 2; 4; 5; 6; 7; 8 |]
  in
  let a = Array.make_matrix 3 3 0. and rhs = Array.make 3 0. in
  let x = Array.make (3 * n) 0. in
  let passes = 25 in
  let batched () =
    for _ = 1 to passes do
      ignore (Model.Linalg.solve_sym3 src offs n x)
    done
  and copied () =
    for _ = 1 to passes do
      for s = 0 to n - 1 do
        for i = 0 to 2 do
          for j = 0 to 2 do
            a.(i).(j) <- src.(full.((3 * i) + j) + s)
          done;
          rhs.(i) <- src.(full.(9 + i) + s)
        done;
        ignore (Model.Linalg.solve_in_place a rhs)
      done
    done
  in
  let tb, tg = best_of_pair 9 batched copied in
  let per t = t /. float_of_int (passes * n) *. 1e9 in
  (per tb, per tg)

let search_kernel () =
  Exp_common.section "model search: cost per candidate, size-3 kernel";
  let words_ok = ref true in
  let shapes =
    List.map
      (fun (name, xs) ->
        let samples = search_samples xs in
        let candidates, wpc = search_words ~before:samples samples in
        let _, fresh = search_words ~before:(shifted_samples xs) samples in
        let ratio = reuse_ratio xs in
        if wpc > 2. then words_ok := false;
        Fmt.pr
          "  %-9s %4d candidates   minor words each %4.2f reused basis \
           (target <= 2), %5.2f fresh   reused / fresh time %.2f@."
          name candidates wpc fresh ratio;
        J.Obj
          [
            ("shape", J.Str name);
            ("candidates", J.Int candidates);
            ("words_per_candidate", J.Float wpc);
            ("fresh_words_per_candidate", J.Float fresh);
            ("reused_over_fresh", J.Float ratio);
          ])
      search_shapes
  in
  let systems = 4096 in
  let ns3, nsg = solver_times systems in
  let ratio = ns3 /. nsg in
  Fmt.pr
    "  %d normal systems in one batch: solve_sym3 %.1f ns, copy + \
     solve_in_place %.1f ns, ratio %.2f (target <= 0.35)@."
    systems ns3 nsg ratio;
  Exp_common.emit_json ~name:"search"
    [
      ("shapes", J.List shapes);
      ("words_target_met", J.Bool !words_ok);
      ("systems", J.Int systems);
      ("solve3_ns", J.Float ns3);
      ("solve_in_place_ns", J.Float nsg);
      ("solve3_over_solve_in_place", J.Float ratio);
      ("solve3_target_met", J.Bool (ratio <= 0.35));
    ]

(* -- campaign executor overhead and retry cost ----------------------------- *)

(* The resilient executor's two costs, measured separately: (1) the pure
   bookkeeping overhead of running a fault-free design through
   [Campaign.run] instead of [Experiment.run_design] (the executor is
   bit-identical in output, so any gap is pure harness tax), and (2) the
   wall-clock and simulated core-hour price of retrying through ~10%
   transient faults. *)
let resilience () =
  Exp_common.section "resilience: campaign overhead and retry cost";
  let machine = Mpi_sim.Machine.skylake_cluster in
  let app = Apps.Lulesh_spec.app in
  let design = Exp_common.lulesh_design ~mode:Instr.Full in
  let retry = { Camp.default_retry with Camp.rt_max_attempts = 3 } in
  let faulty_plan =
    { Fault.none with
      Fault.fp_seed = 11; fp_crash = 0.05; fp_hang = 0.05; fp_persistent = 0.;
      fp_transient_attempts = 2 }
  in
  let design_only () = ignore (Exp.run_design app machine design) in
  let campaign plan () =
    ignore (Camp.run ~plan ~retry app machine design)
  in
  design_only ();
  campaign Fault.none ();
  Gc.compact ();
  let t_design, t_clean = best_of_pair 9 design_only (campaign Fault.none) in
  Fmt.pr
    "  run_design %9.6f s   fault-free campaign %9.6f s   overhead %+.1f%%@."
    t_design t_clean
    ((t_clean /. t_design -. 1.) *. 100.);
  let t_faultfree, t_faulty =
    best_of_pair 5 (campaign Fault.none) (campaign faulty_plan)
  in
  let report = Camp.run ~plan:faulty_plan ~retry app machine design in
  Fmt.pr
    "  10%% transient faults: %d attempts for %d runs (%d retries), wall \
     %.2fx fault-free@."
    report.Camp.cp_attempts
    (List.length report.Camp.cp_runs)
    report.Camp.cp_retries
    (t_faulty /. t_faultfree);
  Fmt.pr
    "  simulated waste: %.1f core-hours burned, %.1f core-hours of backoff@."
    report.Camp.cp_wasted_core_hours report.Camp.cp_backoff_core_hours;
  Exp_common.emit_json ~name:"resilience"
    [
      ("run_design_s", J.Float t_design);
      ("clean_campaign_s", J.Float t_clean);
      ("executor_overhead_pct", J.Float ((t_clean /. t_design -. 1.) *. 100.));
      ("faulty_wall_ratio", J.Float (t_faulty /. t_faultfree));
      ("attempts", J.Int report.Camp.cp_attempts);
      ("completed_runs", J.Int (List.length report.Camp.cp_runs));
      ("retries", J.Int report.Camp.cp_retries);
      ("wasted_core_hours", J.Float report.Camp.cp_wasted_core_hours);
      ("backoff_core_hours", J.Float report.Camp.cp_backoff_core_hours);
    ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  results

let run () =
  Exp_common.section "microbenchmarks (bechamel)";
  let results = benchmark () in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        Fmt.pr "  %-32s %12.1f ns/run@." name est;
        rows := (name, est) :: !rows
      | Some ests ->
        Fmt.pr "  %-32s %a@." name Fmt.(list ~sep:comma float) ests
      | None -> Fmt.pr "  %-32s (no estimate)@." name)
    results;
  (* Hashtbl order is unspecified: sort by name so the JSON is stable. *)
  Exp_common.emit_json ~name:"micro"
    [
      ( "benchmarks",
        J.List
          (List.map
             (fun (name, est) ->
               J.Obj [ ("name", J.Str name); ("ns_per_run", J.Float est) ])
             (List.sort compare !rows)) );
    ];
  policy_speedup ()
