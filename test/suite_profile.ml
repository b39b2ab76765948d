(** Tests of the observability additions: the deterministic sampling
    profiler (bit-identical folded output across runs and merge
    chunkings, associative merging), histogram quantiles, the structured
    event log (byte-identity across runs and pools, kill/resume
    ordering), the bench baseline gate, and doc drift for every
    documented vocabulary. *)

module Prof = Obs_profile
module M = Obs_metrics
module E = Obs_events
module Exp = Measure.Experiment
module Spec = Measure.Spec
module Instr = Measure.Instrument
module Camp = Measure.Campaign
module BR = Measure.Bench_report
module J = Obs_json

(* -- shared fixtures -------------------------------------------------------- *)

let machine = Mpi_sim.Machine.skylake_cluster

let tiny_app =
  let kernel name ~tiny calls per_call deps =
    Spec.kernel ~kind:Spec.Compute ~tiny
      ~calls:(fun _ -> calls)
      ~base_time:(fun ps _ -> calls *. per_call *. Spec.param ps "n")
      ~truth_deps:deps name
  in
  {
    Spec.aname = "tiny";
    kernels = [ kernel "hot" ~tiny:false 10. 1e-4 [ "n" ] ];
    model_params = [ "n" ];
  }

let design =
  { Exp.grid = [ ("n", [ 2.; 4.; 8. ]); ("p", [ 2.; 4. ]) ];
    reps = 3; mode = Instr.Full; sigma = 0.01; seed = 7 }

(* The didactic programs double as profiling workloads: small enough to
   run in microseconds, large enough to take samples at interval 10. *)
let tasks =
  [
    (Apps.Didactic.iterate_example, [ Ir.Types.VInt 10; VInt 2 ]);
    (Apps.Didactic.foo_example, [ Ir.Types.VInt 3; VInt 1; VInt 0 ]);
    (Apps.Didactic.matrix_init, [ Ir.Types.VInt 5; VInt 7 ]);
    (Apps.Didactic.iterate_example, [ Ir.Types.VInt 7; VInt 3 ]);
  ]

let profile_tasks ~interval ts =
  let prof = Prof.create ~interval () in
  List.iter
    (fun (program, args) ->
      ignore (Perf_taint.Pipeline.analyze ~profile:prof program ~args))
    ts;
  prof

(* -- profiler determinism --------------------------------------------------- *)

let test_profile_deterministic () =
  let folded () = Prof.to_folded (profile_tasks ~interval:10 tasks) in
  let a = folded () and b = folded () in
  Alcotest.(check bool) "folded output is non-trivial" true
    (String.length a > 0);
  Alcotest.(check string) "two identical runs, identical folded stacks" a b;
  let snap = Prof.snapshot (profile_tasks ~interval:10 tasks) in
  Alcotest.(check bool) "samples were taken" true (snap.Prof.ps_samples > 0);
  Alcotest.(check bool) "per-function rows exist" true
    (snap.Prof.ps_funcs <> []);
  Alcotest.(check string) "snapshot export agrees with direct export" a
    (Prof.folded_of_snapshot snap)

(* Parallel sections give every task a private profiler and fold them
   back in task order.  How the folds are grouped into waves must not
   matter: merging task profiles one at a time (the --jobs 1 analog)
   and merging them wave by wave (any chunk size) must produce the same
   profile — this is what makes --jobs N bit-identical. *)
let test_profile_merge_matches_serial () =
  let per_task () =
    List.map (fun t -> profile_tasks ~interval:10 [ t ]) tasks
  in
  let serial =
    let base = Prof.create ~interval:10 () in
    List.iter (fun p -> Prof.merge ~into:base p) (per_task ());
    Prof.to_folded base
  in
  let chunked size =
    let rec chunks = function
      | [] -> []
      | ts ->
        let rec take n = function
          | t :: rest when n > 0 ->
            let hd, tl = take (n - 1) rest in
            (t :: hd, tl)
          | rest -> ([], rest)
        in
        let hd, tl = take size ts in
        hd :: chunks tl
    in
    let base = Prof.create ~interval:10 () in
    List.iter
      (fun chunk ->
        let wave = Prof.create ~interval:10 () in
        List.iter (fun p -> Prof.merge ~into:wave p) chunk;
        Prof.merge ~into:base wave)
      (chunks (per_task ()));
    Prof.to_folded base
  in
  List.iter
    (fun size ->
      Alcotest.(check string)
        (Printf.sprintf "wave size %d reproduces the serial merge" size)
        serial (chunked size))
    [ 1; 2; 7 ]

(* Synthetic profiles driven directly through enter/tick/leave: merging
   must be associative so wave-structured pools can fold in any
   grouping without changing the result. *)
let synthetic i =
  let p = Prof.create ~interval:5 () in
  Prof.enter p "main";
  for _ = 1 to 5 * (i + 1) do Prof.tick p done;
  Prof.enter p (Printf.sprintf "task%d" (i mod 2));
  for _ = 1 to 10 * i do Prof.tick p done;
  Prof.leave p;
  Prof.leave p;
  p

let test_profile_merge_associative () =
  let left =
    let ab = synthetic 1 in
    Prof.merge ~into:ab (synthetic 2);
    Prof.merge ~into:ab (synthetic 3);
    ab
  in
  let right =
    let bc = synthetic 2 in
    Prof.merge ~into:bc (synthetic 3);
    let a = synthetic 1 in
    Prof.merge ~into:a bc;
    a
  in
  Alcotest.(check bool) "synthetic profiles saw samples" true
    (Prof.samples left > 0);
  Alcotest.(check string) "merge is associative" (Prof.to_folded left)
    (Prof.to_folded right)

let test_profile_invalid_args () =
  (try
     ignore (Prof.create ~interval:0 ());
     Alcotest.fail "interval 0 accepted"
   with Invalid_argument _ -> ());
  let a = Prof.create ~interval:10 () in
  let b = Prof.create ~interval:20 () in
  try
    Prof.merge ~into:a b;
    Alcotest.fail "interval mismatch accepted"
  with Invalid_argument _ -> ()

(* -- histogram quantiles ---------------------------------------------------- *)

let test_quantile_edges () =
  let reg = M.create () in
  let h = M.histogram reg ~bounds:[| 1.; 2.; 4.; 8. |] "q.test" in
  let empty = M.histogram reg ~bounds:[| 1.; 2. |] "q.empty" in
  ignore empty;
  List.iter (M.observe h) [ 0.5; 1.5; 3.; 5.; 9. ];
  let snap = M.snapshot reg in
  let hs = List.assoc "q.test" snap.M.histograms in
  let es = List.assoc "q.empty" snap.M.histograms in
  Alcotest.(check bool) "empty histogram quantile is nan" true
    (Float.is_nan (M.quantile es 0.5));
  Alcotest.(check (float 1e-9)) "q<=0 is the minimum" hs.M.hs_min
    (M.quantile hs (-0.5));
  Alcotest.(check (float 1e-9)) "q>=1 is the maximum" hs.M.hs_max
    (M.quantile hs 1.5);
  let p50 = M.quantile hs 0.50 in
  let p95 = M.quantile hs 0.95 in
  let p99 = M.quantile hs 0.99 in
  Alcotest.(check bool) "p50 <= p95 <= p99" true (p50 <= p95 && p95 <= p99);
  List.iter
    (fun q ->
      let v = M.quantile hs q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f clamped to [min,max]" q)
        true
        (v >= hs.M.hs_min && v <= hs.M.hs_max))
    [ 0.01; 0.25; 0.5; 0.75; 0.95; 0.99 ]

(* -- structured event log --------------------------------------------------- *)

let event_lines f =
  let sink = E.create ~ts:false () in
  f sink;
  E.lines sink

(* Drop the parallel-only wave events and the sequence numbers they
   consume: what remains must match the serial stream line for line. *)
let is_wave line =
  let needle = "\"event\":\"campaign.wave\"" in
  let nh = String.length line and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub line i nn = needle || at (i + 1)) in
  at 0

let strip_seq line =
  match String.index_opt line ',' with
  | Some i -> String.sub line i (String.length line - i)
  | None -> line

let test_campaign_events_deterministic () =
  let serial () =
    event_lines (fun events ->
        ignore (Camp.run ~events tiny_app machine design))
  in
  let a = serial () and b = serial () in
  Alcotest.(check bool) "campaign emits events" true (a <> []);
  Alcotest.(check (list string)) "two serial runs, identical streams" a b;
  let pooled =
    Par.Pool.with_pool ~jobs:3 (fun pool ->
        event_lines (fun events ->
            ignore (Camp.run ~pool ~events tiny_app machine design)))
  in
  let content lines =
    List.filter_map
      (fun l -> if is_wave l then None else Some (strip_seq l))
      lines
  in
  Alcotest.(check bool) "pool emits wave events" true
    (List.exists is_wave pooled);
  Alcotest.(check (list string))
    "pooled stream is the serial stream plus wave events" (content a)
    (content pooled)

let with_temp_journal f =
  let path = Filename.temp_file "profile_events" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let has_event name lines =
  let needle = Printf.sprintf "\"event\":\"%s\"" name in
  List.exists
    (fun l ->
      let nh = String.length l and nn = String.length needle in
      let rec at i =
        i + nn <= nh && (String.sub l i nn = needle || at (i + 1))
      in
      at 0)
    lines

let test_events_kill_resume () =
  with_temp_journal @@ fun journal ->
  let first =
    event_lines (fun events ->
        let r =
          Camp.run_journaled ~events ~limit:3 ~journal ~resume:false tiny_app
            machine design
        in
        Alcotest.(check bool) "limit interrupts the campaign" true
          r.Camp.cp_interrupted)
  in
  Alcotest.(check bool) "interrupted run recorded coordinates" true
    (has_event "campaign.record" first);
  Alcotest.(check bool) "each flushed record is checkpointed" true
    (has_event "campaign.checkpoint" first);
  Alcotest.(check bool) "no resume events on a fresh journal" false
    (has_event "campaign.resume" first);
  let resumed =
    event_lines (fun events ->
        let r =
          Camp.run_journaled ~events ~journal ~resume:true tiny_app machine
            design
        in
        Alcotest.(check int) "resume restores the finished coordinates" 3
          r.Camp.cp_resumed;
        Alcotest.(check int) "resumed campaign completes the design"
          (List.length (Camp.coordinates design))
          (List.length r.Camp.cp_runs))
  in
  Alcotest.(check bool) "resumed run announces restored coordinates" true
    (has_event "campaign.resume" resumed)

let test_search_events_pool_identical () =
  let runs = Exp.run_design tiny_app machine design in
  let data = Exp.total_dataset runs ~params:[ "n" ] in
  let search ?pool () =
    event_lines (fun events ->
        ignore
          (Model.Search.multi_robust
             ~config:{ Model.Search.default_config with events; pool }
             data))
  in
  let serial = search () in
  Alcotest.(check bool) "search emits a selection event" true
    (has_event "search.selected" serial);
  Par.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list string))
        "search events identical with a pool" serial (search ~pool ()))

let test_fuzz_events_pool_identical () =
  let fuzz ?pool () =
    event_lines (fun events ->
        ignore (Fuzz.Driver.run_campaign ?pool ~events ~seed:3 ~budget:10 ()))
  in
  let serial = fuzz () in
  Alcotest.(check bool) "fuzz emits oracle events" true
    (has_event "fuzz.oracle" serial);
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check (list string)) "fuzz events identical with a pool" serial
        (fuzz ~pool ()))

(* -- bench baseline gate ---------------------------------------------------- *)

let test_compare_values_tolerance () =
  let expected =
    J.Obj [ ("experiment", J.Str "x"); ("v", J.Float 100.); ("k", J.Int 3) ]
  in
  let within =
    J.Obj [ ("experiment", J.Str "x"); ("v", J.Float 104.); ("k", J.Int 3) ]
  in
  Alcotest.(check int) "4% drift passes a 5% tolerance" 0
    (List.length
       (BR.compare_values ~tolerance:0.05 ~expected ~actual:within));
  let beyond =
    J.Obj [ ("experiment", J.Str "x"); ("v", J.Float 110.); ("k", J.Int 3) ]
  in
  (match BR.compare_values ~tolerance:0.05 ~expected ~actual:beyond with
  | [ mm ] -> Alcotest.(check string) "the drifted key is named" "v" mm.BR.mm_path
  | mms ->
    Alcotest.fail
      (Printf.sprintf "expected exactly one mismatch, got %d"
         (List.length mms)));
  let missing = J.Obj [ ("experiment", J.Str "x"); ("v", J.Float 100.) ] in
  match BR.compare_values ~tolerance:0.05 ~expected ~actual:missing with
  | [ mm ] ->
    Alcotest.(check string) "missing key is a mismatch" "k" mm.BR.mm_path;
    Alcotest.(check string) "missing key marked" "<missing>" mm.BR.mm_actual
  | mms ->
    Alcotest.fail
      (Printf.sprintf "expected exactly one mismatch, got %d"
         (List.length mms))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let test_check_baseline_perturbation () =
  let baseline = Filename.temp_file "baseline" ".json" in
  let actual = Filename.temp_file "actual" ".json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ baseline; actual ])
    (fun () ->
      write_file baseline "{\"experiment\": \"t\", \"v\": 100.0, \"n\": 3}";
      write_file actual "{\"experiment\": \"t\", \"v\": 103.0, \"n\": 3}";
      (match BR.check_baseline ~baseline ~actual () with
      | Ok ck ->
        Alcotest.(check bool) "within-tolerance actual passes" true
          (BR.passed [ ck ])
      | Error e -> Alcotest.fail e);
      write_file actual "{\"experiment\": \"t\", \"v\": 120.0, \"n\": 3}";
      (match BR.check_baseline ~baseline ~actual () with
      | Ok ck ->
        Alcotest.(check bool) "perturbed actual fails" false (BR.passed [ ck ])
      | Error e -> Alcotest.fail e);
      match
        BR.check_baseline ~baseline ~actual:(actual ^ ".does-not-exist") ()
      with
      | Ok ck ->
        Alcotest.(check bool) "missing actual is a failing check, not an error"
          false
          (BR.passed [ ck ])
      | Error e -> Alcotest.fail e)

(* -- doc drift -------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* Each documented vocabulary has a single definition in code; the
   matching table in doc/OBSERVABILITY.md must list every row verbatim. *)
let doc_lists what vocabulary () =
  (* cwd is _build/default/test under `dune runtest` (the dep in
     test/dune makes the copy) but the project root under `dune exec`. *)
  let path =
    List.find Sys.file_exists
      [ "../doc/OBSERVABILITY.md"; "doc/OBSERVABILITY.md" ]
  in
  let doc = read_file path in
  List.iter
    (fun (name, descr) ->
      let row = Printf.sprintf "| `%s` | %s |" name descr in
      Alcotest.(check bool)
        (Printf.sprintf "doc/OBSERVABILITY.md lists %s %s with its meaning"
           what name)
        true (contains doc row))
    vocabulary

let tests =
  [
    Alcotest.test_case "profiler output is deterministic" `Quick
      test_profile_deterministic;
    Alcotest.test_case "chunked merge reproduces the serial profile" `Quick
      test_profile_merge_matches_serial;
    Alcotest.test_case "profile merge is associative" `Quick
      test_profile_merge_associative;
    Alcotest.test_case "profiler rejects invalid intervals" `Quick
      test_profile_invalid_args;
    Alcotest.test_case "histogram quantile edge cases" `Quick
      test_quantile_edges;
    Alcotest.test_case "campaign event stream is deterministic" `Quick
      test_campaign_events_deterministic;
    Alcotest.test_case "events across kill and resume" `Quick
      test_events_kill_resume;
    Alcotest.test_case "search events identical with a pool" `Quick
      test_search_events_pool_identical;
    Alcotest.test_case "fuzz events identical with a pool" `Quick
      test_fuzz_events_pool_identical;
    Alcotest.test_case "baseline comparison honors tolerance" `Quick
      test_compare_values_tolerance;
    Alcotest.test_case "baseline gate catches perturbations" `Quick
      test_check_baseline_perturbation;
    Alcotest.test_case "profile fields documented" `Quick
      (doc_lists "profile field" Prof.json_fields);
    Alcotest.test_case "campaign events documented" `Quick
      (doc_lists "campaign event" Camp.event_names);
    Alcotest.test_case "search events documented" `Quick
      (doc_lists "search event" Model.Search.event_names);
    Alcotest.test_case "fuzz events documented" `Quick
      (doc_lists "fuzz event" Fuzz.Driver.event_names);
  ]
