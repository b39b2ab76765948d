(** Tests of the deterministic domain pool ([lib/par]) and its
    integration points: [map] semantics (input order, exception
    routing), campaign and model-search parallel-vs-serial
    bit-identity, fuzz-driver report identity, and the [par.*] counter
    table in doc/OBSERVABILITY.md. *)

module P = Par.Pool
module M = Obs_metrics
module Exp = Measure.Experiment
module Spec = Measure.Spec
module Instr = Measure.Instrument
module Fault = Measure.Fault
module Camp = Measure.Campaign

let machine = Mpi_sim.Machine.skylake_cluster

(* Jobs counts chosen to cover the degenerate pool (1), the smallest
   real one (2), and one that exceeds both the host's cores and the
   item-count/chunking sweet spot (7). *)
let jobs_axis = [ 1; 2; 7 ]

(* -- map semantics ----------------------------------------------------------- *)

let test_map_matches_list_map () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + (x mod 7) in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun pool ->
          List.iter
            (fun chunk ->
              Alcotest.(check (list int))
                (Printf.sprintf "jobs=%d chunk=%d" jobs chunk)
                expected
                (P.map pool ~chunk f xs))
            [ 1; 3; 64 ];
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d default chunk" jobs)
            expected (P.map pool f xs)))
    jobs_axis

let test_map_edge_inputs () =
  P.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list int)) "empty input" [] (P.map pool succ []);
      Alcotest.(check (list int)) "singleton" [ 42 ] (P.map pool succ [ 41 ]);
      Alcotest.(check (list int))
        "fewer items than workers" [ 1; 2 ]
        (P.map pool succ [ 0; 1 ]))

exception Boom of int

let test_exception_lowest_index_wins () =
  let xs = List.init 50 Fun.id in
  let f x = if x = 13 || x = 37 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun pool ->
          (match P.map pool ~chunk:1 f xs with
          | _ -> Alcotest.fail "map over raising tasks must raise"
          | exception Boom i ->
            Alcotest.(check int)
              (Printf.sprintf "lowest failing index at jobs=%d" jobs)
              13 i);
          (* The failed map must not wedge the pool. *)
          Alcotest.(check (list int)) "pool usable after exception"
            (List.map succ xs)
            (P.map pool succ xs)))
    jobs_axis

let test_shutdown_idempotent_then_serial () =
  let pool = P.create ~jobs:4 () in
  let xs = List.init 20 Fun.id in
  Alcotest.(check (list int)) "before shutdown" (List.map succ xs)
    (P.map pool succ xs);
  P.shutdown pool;
  P.shutdown pool;
  Alcotest.(check (list int)) "after shutdown maps run serially"
    (List.map succ xs) (P.map pool succ xs)

let test_counters () =
  let metrics = M.create () in
  P.with_pool ~metrics ~jobs:3 (fun pool ->
      ignore (P.map pool succ (List.init 30 Fun.id));
      ignore (P.map pool succ (List.init 10 Fun.id)));
  let s = M.snapshot metrics in
  Alcotest.(check (option int)) "par.pools" (Some 1)
    (M.find_counter s "par.pools");
  Alcotest.(check (option int)) "par.maps" (Some 2)
    (M.find_counter s "par.maps");
  Alcotest.(check (option int)) "par.tasks" (Some 40)
    (M.find_counter s "par.tasks");
  match M.find_counter s "par.chunks" with
  | Some c -> Alcotest.(check bool) "chunks cover both maps" true (c >= 2)
  | None -> Alcotest.fail "par.chunks not registered"

(* -- campaign bit-identity ---------------------------------------------------- *)

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

let transient_plan =
  { Fault.none with
    Fault.fp_seed = 11; fp_crash = 0.1; fp_hang = 0.05; fp_persistent = 0.;
    fp_transient_attempts = 2 }

let retry = { Camp.default_retry with Camp.rt_max_attempts = 3 }

let test_campaign_parallel_identity () =
  let serial = Camp.run ~plan:transient_plan ~retry tiny_app machine design in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun pool ->
          let par =
            Camp.run ~pool ~plan:transient_plan ~retry tiny_app machine design
          in
          Alcotest.(check bool)
            (Printf.sprintf "report bit-identical at jobs=%d" jobs)
            true
            (compare serial par = 0)))
    jobs_axis

let with_temp_journal f =
  let path = Filename.temp_file "par-campaign" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_campaign_journal_byte_identity () =
  with_temp_journal @@ fun serial_journal ->
  with_temp_journal @@ fun par_journal ->
  ignore
    (Camp.run_journaled ~plan:transient_plan ~retry ~journal:serial_journal
       ~resume:false tiny_app machine design);
  P.with_pool ~jobs:3 (fun pool ->
      ignore
        (Camp.run_journaled ~pool ~plan:transient_plan ~retry
           ~journal:par_journal ~resume:false tiny_app machine design));
  Alcotest.(check bool) "journals byte-identical" true
    (read_file serial_journal = read_file par_journal)

let test_campaign_kill_resume_parallel () =
  with_temp_journal @@ fun journal ->
  let uninterrupted =
    Camp.run ~plan:transient_plan ~retry tiny_app machine design
  in
  P.with_pool ~jobs:4 (fun pool ->
      let partial =
        Camp.run_journaled ~pool ~plan:transient_plan ~retry ~limit:5 ~journal
          ~resume:false tiny_app machine design
      in
      Alcotest.(check bool) "partial campaign interrupted" true
        partial.Camp.cp_interrupted;
      let resumed =
        Camp.run_journaled ~pool ~plan:transient_plan ~retry ~journal
          ~resume:true tiny_app machine design
      in
      Alcotest.(check bool) "resumed not interrupted" false
        resumed.Camp.cp_interrupted;
      Alcotest.(check bool) "resumed records bit-identical to uninterrupted"
        true
        (compare resumed.Camp.cp_records uninterrupted.Camp.cp_records = 0))

(* -- model-search bit-identity ------------------------------------------------ *)

let search_identity app p_values size_values name =
  let design =
    { Exp.grid = [ ("p", p_values); ("size", size_values); ("r", [ 8. ]) ];
      reps = 3; mode = Instr.Full; sigma = 0.02; seed = 42 }
  in
  let runs = Exp.run_design app machine design in
  let data = Exp.total_dataset runs ~params:[ "p"; "size" ] in
  let serial = Model.Search.multi_robust data in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun pool ->
          let config =
            { Model.Search.default_config with Model.Search.pool = Some pool }
          in
          let par = Model.Search.multi_robust ~config data in
          Alcotest.(check bool)
            (Printf.sprintf "%s robust fit identical at jobs=%d" name jobs)
            true
            (compare serial par = 0)))
    jobs_axis

let test_search_parallel_identity_lulesh () =
  search_identity Apps.Lulesh_spec.app Apps.Lulesh_spec.p_values
    Apps.Lulesh_spec.size_values "lulesh"

let test_search_parallel_identity_minicg () =
  search_identity Apps.Minicg_spec.app Apps.Minicg_spec.p_values
    Apps.Minicg_spec.n_values "minicg"

(* -- fuzz-driver report identity ---------------------------------------------- *)

(* A synthetic always-deterministic oracle that fails on a stable
   fraction of generated programs, so the parallel driver's
   first-failure selection and shrinking path is exercised, not just
   the all-pass path. *)
let synthetic_oracle =
  { Fuzz.Oracle.name = "synthetic";
    check =
      (fun _ p ->
        if String.length (Ir.Pp.program_to_string p) mod 3 = 0 then
          Fuzz.Oracle.Fail "printed length divisible by 3"
        else Fuzz.Oracle.Pass) }

let test_fuzz_parallel_identity () =
  let oracles =
    [ Fuzz.Oracle.printer_roundtrip; Fuzz.Oracle.tripcount; synthetic_oracle ]
  in
  let serial = Fuzz.Driver.run_campaign ~oracles ~seed:5 ~budget:30 () in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun pool ->
          let par =
            Fuzz.Driver.run_campaign ~pool ~oracles ~seed:5 ~budget:30 ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "fuzz report bit-identical at jobs=%d" jobs)
            true
            (compare serial par = 0)))
    jobs_axis

(* -- documentation drift ------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* [Par.Pool.counters] is the single definition of the pool counter
   names; the table in doc/OBSERVABILITY.md must list every row
   verbatim. *)
let test_counter_doc_in_sync () =
  let path =
    List.find Sys.file_exists
      [ "../doc/OBSERVABILITY.md"; "doc/OBSERVABILITY.md" ]
  in
  let doc = read_file path in
  List.iter
    (fun (name, descr) ->
      let row = Printf.sprintf "| `%s` | %s |" name descr in
      Alcotest.(check bool)
        (Printf.sprintf "doc/OBSERVABILITY.md lists %s with its meaning" name)
        true (contains doc row))
    P.counters

(* -- one loop at every job count ---------------------------------------------- *)

let attempt_spans trace =
  List.length
    (List.filter
       (fun (e : Obs_trace.event) ->
         e.Obs_trace.ev_ph = Obs_trace.Begin
         && e.Obs_trace.ev_name = "campaign.attempt")
       (Obs_trace.events trace))

(* Without workers a campaign commits each coordinate before it executes
   the next: whenever [on_record] fires, the attempts traced so far are
   exactly the attempts of the records committed so far.  Its event
   stream has no [campaign.wave] events; they appear only above one
   job. *)
let test_serial_commit_granularity () =
  let check label pool =
    let trace = Obs_trace.create () in
    let events = Obs_events.create ~ts:false () in
    let calls = ref 0 and committed = ref 0 in
    let on_record (r : Camp.record) =
      incr calls;
      committed := !committed + r.Camp.rc_attempts;
      Alcotest.(check int)
        (Printf.sprintf "%s: attempts traced at record %d" label !calls)
        !committed (attempt_spans trace)
    in
    let report =
      Camp.run ?pool ~trace ~events ~plan:transient_plan ~retry ~on_record
        tiny_app machine design
    in
    Alcotest.(check bool) (label ^ ": no wave events") false
      (List.exists
         (fun l -> contains l "campaign.wave")
         (Obs_events.lines events));
    Alcotest.(check int)
      (label ^ ": on_record saw every coordinate")
      (List.length report.Camp.cp_records)
      !calls;
    Alcotest.(check bool) (label ^ ": some coordinate retried") true
      (report.Camp.cp_retries > 0)
  in
  check "no pool" None;
  P.with_pool ~jobs:1 (fun pool -> check "one-job pool" (Some pool))

(* The whole campaign registry — counters (zeros included), gauges and
   histograms — is the same with no pool and at every job count. *)
let test_campaign_registry_identity () =
  let snapshot pool =
    let metrics = M.create () in
    ignore
      (Camp.run ?pool ~metrics ~plan:transient_plan ~retry tiny_app machine
         design);
    M.snapshot metrics
  in
  let serial = snapshot None in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s registered" name)
        true
        (M.find_counter serial name <> None))
    Camp.counters;
  Alcotest.(check (option int)) "untouched counters read zero" (Some 0)
    (M.find_counter serial "campaign.journal_torn");
  Alcotest.(check bool) "sim.core_hours gauge written" true
    (M.find_gauge serial "sim.core_hours" <> None);
  Alcotest.(check bool) "sim.run_wall_s histogram present" true
    (List.mem_assoc "sim.run_wall_s" serial.M.histograms);
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun pool ->
          Alcotest.(check bool)
            (Printf.sprintf "registry snapshot identical at jobs=%d" jobs)
            true
            (compare serial (snapshot (Some pool)) = 0)))
    jobs_axis

(* A campaign given no pool runs on the shared one-job pool, which any
   domain may use at once.  Eight such campaigns inside one map on a
   4-job pool (what [serve --jobs N] does with cold fits) each equal the
   same campaign run alone. *)
let test_serial_campaigns_inside_a_pool () =
  let campaign seed =
    let metrics = M.create () in
    let report =
      Camp.run ~metrics
        ~plan:{ transient_plan with Fault.fp_seed = seed }
        ~retry tiny_app machine
        { design with Exp.seed = seed }
    in
    (report, M.snapshot metrics)
  in
  let seeds = List.init 8 (fun i -> 100 + i) in
  let alone = List.map campaign seeds in
  let inside =
    P.with_pool ~jobs:4 (fun pool -> P.map pool ~chunk:1 campaign seeds)
  in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "campaign %d: report and registry identical" i)
        true
        (compare a b = 0))
    (List.combine alone inside)

(* -- search counters and events at every job count ---------------------------- *)

(* A single-parameter search scores its menu from term indices when
   serial and as a list on a pool: with no pool and on pools of 2 and 7
   jobs, the selected fit, every search.* counter and the event stream
   must be the same, and the counters must count each menu exactly. *)
let test_search_counters_and_events () =
  let samples =
    List.mapi
      (fun i x ->
        (x, 1. +. (0.5 *. x *. sqrt x) +. (0.01 *. float_of_int (i mod 7))))
      [ 8.; 27.; 64.; 216.; 729. ]
  in
  let run config pool =
    let reg = M.create () and events = Obs_events.create ~ts:false () in
    let config =
      { config with Model.Search.metrics = Some reg; pool; events }
    in
    let r = Model.Search.single ~config ~param:"p" samples in
    ( r,
      M.counters_with_prefix (M.snapshot reg) "search.",
      Obs_events.lines events )
  in
  List.iter
    (fun (menu, config, single_term, two_term, evaluated) ->
      let ((r, counters, events) as serial) = run config None in
      let count name =
        Option.value ~default:(-1) (List.assoc_opt name counters)
      in
      List.iter
        (fun (name, want) ->
          Alcotest.(check int) (Printf.sprintf "%s menu: %s" menu name) want
            (count name))
        [ ("candidates.single_term", single_term);
          ("candidates.two_term", two_term); ("evaluated", evaluated) ];
      Alcotest.(check int) (menu ^ " menu: hypotheses tried") evaluated
        r.Model.Search.hypotheses_tried;
      Alcotest.(check bool) (menu ^ " menu: ends with search.selected") true
        (match List.rev events with
         | last :: _ :: _ -> contains last "\"search.selected\""
         | _ -> false);
      List.iter
        (fun jobs ->
          P.with_pool ~jobs (fun pool ->
              Alcotest.(check bool)
                (Printf.sprintf
                   "%s menu: fit, counters and events identical at jobs=%d"
                   menu jobs)
                true
                (compare serial (run config (Some pool)) = 0)))
        [ 2; 7 ])
    [
      ("default", Model.Search.default_config, 53, 1378, 1432);
      ("extended", Model.Search.extended_config, 74, 2701, 2776);
      ( "one-term",
        { Model.Search.default_config with Model.Search.max_terms = 1 },
        53, 0, 54 );
    ]

let tests =
  [
    Alcotest.test_case "map matches List.map at 1/2/7 jobs" `Quick
      test_map_matches_list_map;
    Alcotest.test_case "map edge inputs" `Quick test_map_edge_inputs;
    Alcotest.test_case "lowest-index exception wins; pool survives" `Quick
      test_exception_lowest_index_wins;
    Alcotest.test_case "shutdown idempotent, serial afterwards" `Quick
      test_shutdown_idempotent_then_serial;
    Alcotest.test_case "par.* counters" `Quick test_counters;
    Alcotest.test_case "campaign parallel bit-identity" `Quick
      test_campaign_parallel_identity;
    Alcotest.test_case "campaign journal byte-identity" `Quick
      test_campaign_journal_byte_identity;
    Alcotest.test_case "campaign kill/resume under a pool" `Quick
      test_campaign_kill_resume_parallel;
    Alcotest.test_case "search bit-identity (lulesh)" `Quick
      test_search_parallel_identity_lulesh;
    Alcotest.test_case "search bit-identity (minicg)" `Quick
      test_search_parallel_identity_minicg;
    Alcotest.test_case "fuzz report bit-identity" `Quick
      test_fuzz_parallel_identity;
    Alcotest.test_case "par counter table in sync with doc" `Quick
      test_counter_doc_in_sync;
    Alcotest.test_case "serial campaign commits each coordinate" `Quick
      test_serial_commit_granularity;
    Alcotest.test_case "campaign registry identical at every job count"
      `Quick test_campaign_registry_identity;
    Alcotest.test_case "serial campaigns inside a pool" `Quick
      test_serial_campaigns_inside_a_pool;
    Alcotest.test_case "search counters and events at every job count"
      `Quick test_search_counters_and_events;
  ]
