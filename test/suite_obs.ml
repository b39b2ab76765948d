(** Tests of the observability layer: the metrics registry, the trace
    sink and its Chrome export, the pipeline self-profile, and a CLI-shaped
    smoke test that pushes every bundled target through [Pipeline.analyze]
    and the [stats] export path. *)

module M = Obs_metrics
module T = Obs_trace

(* -- metrics registry ---------------------------------------------------- *)

let test_counters () =
  let reg = M.create () in
  let c = M.counter reg "a.b" in
  M.incr c;
  M.incr c;
  M.add c 40;
  Alcotest.(check int) "counter value" 42 (M.counter_value c);
  Alcotest.(check bool) "interned" true (M.counter reg "a.b" == c);
  let s = M.snapshot reg in
  Alcotest.(check (option int)) "snapshot" (Some 42) (M.find_counter s "a.b");
  Alcotest.(check (option int)) "missing" None (M.find_counter s "nope")

let test_gauges () =
  let reg = M.create () in
  let g = M.gauge reg "g" in
  let s0 = M.snapshot reg in
  Alcotest.(check (option (float 0.))) "unwritten gauge absent" None
    (M.find_gauge s0 "g");
  M.set_gauge g 1.5;
  M.add_gauge g 0.5;
  M.max_gauge g 1.0;
  let s = M.snapshot reg in
  Alcotest.(check (option (float 1e-9))) "set/add/max" (Some 2.0)
    (M.find_gauge s "g")

let test_histogram () =
  let reg = M.create () in
  let h = M.histogram reg ~bounds:[| 1.; 10. |] "h" in
  List.iter (M.observe h) [ 0.5; 5.; 50. ];
  let s = M.snapshot reg in
  match List.assoc_opt "h" s.M.histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some hs ->
    Alcotest.(check (list (pair (float 0.) int)))
      "buckets"
      [ (1., 1); (10., 1) ]
      hs.M.hs_buckets;
    Alcotest.(check int) "overflow" 1 hs.M.hs_overflow;
    Alcotest.(check int) "count" 3 hs.M.hs_count;
    Alcotest.(check (float 1e-9)) "sum" 55.5 hs.M.hs_sum;
    Alcotest.(check (float 1e-9)) "min" 0.5 hs.M.hs_min;
    Alcotest.(check (float 1e-9)) "max" 50. hs.M.hs_max

let test_prefix () =
  let reg = M.create () in
  M.incr (M.counter reg "interp.instr.alu");
  M.add (M.counter reg "interp.instr.mem") 3;
  M.incr (M.counter reg "other");
  let s = M.snapshot reg in
  Alcotest.(check (list (pair string int)))
    "prefix stripped"
    [ ("alu", 1); ("mem", 3) ]
    (M.counters_with_prefix s "interp.instr.")

(* -- trace sink ---------------------------------------------------------- *)

let test_disabled_sink () =
  let sink = T.disabled in
  Alcotest.(check bool) "not enabled" false (T.enabled sink);
  T.span_begin sink "x";
  T.instant sink "y";
  T.span_end sink "x";
  Alcotest.(check int) "no events" 0 (List.length (T.events sink));
  Alcotest.(check int) "with_span passes through" 7
    (T.with_span sink "s" (fun () -> 7))

let test_spans_balanced () =
  let sink = T.create () in
  T.span_begin sink "outer";
  T.instant sink "tick";
  T.span_begin sink "inner";
  T.span_end sink "inner";
  T.span_end sink "outer";
  let evs = T.events sink in
  Alcotest.(check int) "five events" 5 (List.length evs);
  Alcotest.(check bool) "balanced" true (T.balanced evs);
  let totals = T.span_totals sink in
  Alcotest.(check int) "two span names" 2 (List.length totals)

let test_with_span_on_exception () =
  let sink = T.create () in
  (try T.with_span sink "risky" (fun () -> failwith "boom") with _ -> ());
  Alcotest.(check bool) "still balanced" true (T.balanced (T.events sink))

let test_event_cap_stays_balanced () =
  let sink = T.create ~max_events:3 () in
  T.span_begin sink "a";
  T.span_begin sink "b";
  T.span_begin sink "c";
  (* cap reached: this Begin is dropped, so its End must be too *)
  T.span_begin sink "d";
  T.span_end sink "d";
  T.span_end sink "c";
  T.span_end sink "b";
  T.span_end sink "a";
  let evs = T.events sink in
  Alcotest.(check bool) "balanced after cap" true (T.balanced evs);
  Alcotest.(check bool) "dropped counted" true (T.dropped_events sink > 0)

let json_well_formed s = Result.is_ok (Obs_json.parse s)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_chrome_export () =
  let sink = T.create () in
  T.with_span sink ~cat:"pipeline" "phase" (fun () ->
      T.instant sink ~args:[ ("n", T.Int 3); ("who", T.Str "x\"y") ] "mark");
  let s = T.to_chrome_string sink in
  Alcotest.(check bool) "well formed" true (json_well_formed s);
  Alcotest.(check bool) "traceEvents array" true
    (contains s "\"traceEvents\":[");
  Alcotest.(check bool) "has B" true (contains s "\"ph\":\"B\"");
  Alcotest.(check bool) "has E" true (contains s "\"ph\":\"E\"");
  Alcotest.(check bool) "has instant" true (contains s "\"ph\":\"i\"");
  Alcotest.(check bool) "instant has scope" true (contains s "\"s\":\"t\"");
  Alcotest.(check bool) "escaped arg" true (contains s "x\\\"y")

let test_write_file () =
  let sink = T.create () in
  T.with_span sink "p" (fun () -> ());
  let path = Filename.temp_file "perf_taint_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      T.write_file sink path;
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Alcotest.(check bool) "file well formed" true (json_well_formed s);
      Alcotest.(check bool) "file has traceEvents" true
        (contains s "traceEvents"))

(* -- pipeline self-profile over every bundled target --------------------- *)

(* The same target table the CLI exposes; a broken bundled app can no
   longer slip through the tests. *)
let bundled_targets () =
  let w = Mpi_sim.Runtime.default_world in
  [
    ("lulesh", Apps.Lulesh.program, Apps.Lulesh.taint_args, Apps.Lulesh.taint_world);
    ("milc", Apps.Milc.program, Apps.Milc.taint_args, Apps.Milc.taint_world);
    ("minicg", Apps.Minicg.program, Apps.Minicg.taint_args, Apps.Minicg.taint_world);
    ("iterate", Apps.Didactic.iterate_example, [ Ir.Types.VInt 10; VInt 2 ], w);
    ("foo", Apps.Didactic.foo_example, [ Ir.Types.VInt 3; VInt 1; VInt 0 ], w);
    ("matrix", Apps.Didactic.matrix_init, [ Ir.Types.VInt 6; VInt 8 ], w);
    ("select", Apps.Didactic.algorithm_selection, [ Ir.Types.VInt 2 ], w);
  ]

let test_bundled_smoke () =
  List.iter
    (fun (name, program, args, world) ->
      let metrics = M.create () in
      let trace = T.create () in
      let a = Perf_taint.Pipeline.analyze ~metrics ~trace ~world program ~args in
      Alcotest.(check bool) (name ^ " executed instructions") true (a.steps > 0);
      (* Phase gauges present and non-negative, in pipeline order. *)
      let phases = Perf_taint.Pipeline.phases a in
      Alcotest.(check (list string))
        (name ^ " phases")
        [ "static"; "taint_run"; "post"; "total" ]
        (List.map fst phases);
      List.iter
        (fun (p, s) ->
          Alcotest.(check bool) (name ^ " phase " ^ p ^ " >= 0") true (s >= 0.))
        phases;
      (* Instruction classes were counted and agree with the step total. *)
      let classes = M.counters_with_prefix a.snapshot "interp.instr." in
      let by_class = List.fold_left (fun acc (_, v) -> acc + v) 0 classes in
      Alcotest.(check int) (name ^ " classes sum to steps") a.steps by_class;
      (* taint.labels counts the registered sources, and is the only
         taint.* counter. *)
      Alcotest.(check (list (pair string int)))
        (name ^ " taint counters")
        [ ("labels", List.length (Taint.Label.sources a.labels)) ]
        (M.counters_with_prefix a.snapshot "taint.");
      (* The recorded trace is loadable: balanced spans, pipeline phases
         present. *)
      let evs = T.events trace in
      Alcotest.(check bool) (name ^ " trace balanced") true (T.balanced evs);
      let chrome = T.to_chrome_string trace in
      Alcotest.(check bool)
        (name ^ " chrome json well formed")
        true (json_well_formed chrome);
      Alcotest.(check bool)
        (name ^ " has taint_run span")
        true
        (contains chrome "pipeline.taint_run"))
    (bundled_targets ())

let test_stats_json_path () =
  List.iter
    (fun (name, program, args, world) ->
      let metrics = M.create () in
      let a = Perf_taint.Pipeline.analyze ~metrics ~world program ~args in
      let s = Obs_json.to_string (Perf_taint.Export.stats_json a) in
      Alcotest.(check bool) (name ^ " stats well formed") true
        (json_well_formed s);
      List.iter
        (fun key ->
          Alcotest.(check bool)
            (name ^ " stats has " ^ key)
            true
            (contains s ("\"" ^ key ^ "\"")))
        [ "phases"; "static"; "taint_run"; "post"; "instructions";
          "label_table"; "labels"; "metrics" ])
    (bundled_targets ())

(* Without a registry the pipeline still reports phases and the label count,
   but skips per-instruction accounting — the disabled interpreter path. *)
let test_analyze_without_registry () =
  let a =
    Perf_taint.Pipeline.analyze Apps.Didactic.iterate_example
      ~args:[ Ir.Types.VInt 10; VInt 2 ]
  in
  Alcotest.(check bool) "phases recorded" true
    (List.length (Perf_taint.Pipeline.phases a) = 4);
  Alcotest.(check (option int)) "no instruction classes" None
    (M.find_counter a.snapshot "interp.instr.alu");
  Alcotest.(check (option int)) "label count recorded" (Some 2)
    (M.find_counter a.snapshot "taint.labels");
  (* doc/OBSERVABILITY.md gives every taint.* counter its own row. *)
  let doc =
    In_channel.with_open_bin
      (List.find Sys.file_exists
         [ "../doc/OBSERVABILITY.md"; "doc/OBSERVABILITY.md" ])
      In_channel.input_all
  in
  List.iter
    (fun (n, _) ->
      Alcotest.(check bool) ("doc row for taint." ^ n) true
        (contains doc (Printf.sprintf "| `taint.%s` |" n)))
    (M.counters_with_prefix a.snapshot "taint.")

(* -- search + simulator accounting --------------------------------------- *)

let test_search_accounting () =
  let reg = M.create () in
  let config = { Model.Search.default_config with metrics = Some reg } in
  let samples =
    List.map (fun x -> (x, 2. +. (0.5 *. x))) [ 2.; 4.; 8.; 16.; 32. ]
  in
  let _ = Model.Search.single ~config ~param:"p" samples in
  let s = M.snapshot reg in
  let get name = Option.value ~default:0 (M.find_counter s name) in
  Alcotest.(check bool) "single-term candidates" true
    (get "search.candidates.single_term" > 0);
  Alcotest.(check bool) "two-term candidates" true
    (get "search.candidates.two_term" > 0);
  Alcotest.(check bool) "evaluated >= generated" true
    (get "search.evaluated"
    >= get "search.candidates.single_term" + get "search.candidates.two_term")

let test_simulator_accounting () =
  let reg = M.create () in
  let design =
    {
      Measure.Experiment.grid = [ ("p", [ 8.; 16. ]); ("size", [ 10. ]) ];
      reps = 3;
      mode = Measure.Instrument.Full;
      sigma = 0.02;
      seed = 1;
    }
  in
  let runs =
    Measure.Experiment.run_design ~metrics:reg Apps.Lulesh_spec.app
      Mpi_sim.Machine.skylake_cluster design
  in
  let s = M.snapshot reg in
  Alcotest.(check (option int)) "runs counted" (Some (List.length runs))
    (M.find_counter s "sim.runs");
  Alcotest.(check (option int)) "one campaign" (Some 1)
    (M.find_counter s "sim.campaigns");
  (match M.find_gauge s "sim.core_hours" with
  | None -> Alcotest.fail "core-hours gauge missing"
  | Some ch ->
    Alcotest.(check (float 1e-9)) "core-hours matches bookkeeping"
      (Measure.Experiment.core_hours runs)
      ch);
  match List.assoc_opt "sim.run_wall_s" s.M.histograms with
  | None -> Alcotest.fail "wall-time histogram missing"
  | Some hs -> Alcotest.(check int) "histogram count" (List.length runs) hs.M.hs_count

(* [write_lines] replaces a regular file through a temp file and a
   rename, but writes through a symlink in place: a rename would replace
   the link itself (as it would /dev/stdout). *)
let test_write_lines_through_symlink () =
  let dir = Filename.temp_file "perf_taint_lines" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path name = Filename.concat dir name in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (path name)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  Obs_json.write_lines (path "target.jsonl") [ {|{"a":1}|}; {|{"a":2}|} ];
  Unix.symlink "target.jsonl" (path "link.jsonl");
  Obs_json.write_lines (path "link.jsonl") [ {|{"b":1}|} ];
  Alcotest.(check bool) "the link survives" true
    ((Unix.lstat (path "link.jsonl")).Unix.st_kind = Unix.S_LNK);
  Alcotest.(check (list (pair int string))) "written through the link"
    [ (1, {|{"b":1}|}) ]
    (Obs_json.read_lines (path "target.jsonl"));
  Alcotest.(check (list string)) "no temp file left"
    [ "link.jsonl"; "target.jsonl" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let tests =
  [
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "gauges" `Quick test_gauges;
    Alcotest.test_case "histograms" `Quick test_histogram;
    Alcotest.test_case "counter prefix listing" `Quick test_prefix;
    Alcotest.test_case "disabled sink is inert" `Quick test_disabled_sink;
    Alcotest.test_case "span nesting balanced" `Quick test_spans_balanced;
    Alcotest.test_case "with_span survives exceptions" `Quick
      test_with_span_on_exception;
    Alcotest.test_case "event cap keeps pairs matched" `Quick
      test_event_cap_stays_balanced;
    Alcotest.test_case "chrome trace export" `Quick test_chrome_export;
    Alcotest.test_case "trace file dump" `Quick test_write_file;
    Alcotest.test_case "bundled targets smoke (analyze + trace)" `Quick
      test_bundled_smoke;
    Alcotest.test_case "bundled targets stats json" `Quick test_stats_json_path;
    Alcotest.test_case "analyze without a registry" `Quick
      test_analyze_without_registry;
    Alcotest.test_case "search candidate accounting" `Quick
      test_search_accounting;
    Alcotest.test_case "simulator campaign accounting" `Quick
      test_simulator_accounting;
    Alcotest.test_case "JSON-lines writes go through a symlink" `Quick
      test_write_lines_through_symlink;
  ]
