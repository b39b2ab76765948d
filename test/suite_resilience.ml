(** Tests of the resilience subsystem: deterministic fault plans, the
    campaign executor (retry/backoff, bit-identity with [run_design]),
    the checkpoint journal (kill/resume), grid-gap reporting, and the
    outlier-robust model fit surviving fault-degraded datasets. *)

module Sim = Measure.Simulator
module Exp = Measure.Experiment
module Spec = Measure.Spec
module Instr = Measure.Instrument
module Fault = Measure.Fault
module Camp = Measure.Campaign
module Machine = Mpi_sim.Machine

let machine = Machine.skylake_cluster

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

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* -- fault plans ------------------------------------------------------------- *)

let test_fault_deterministic () =
  let plan = Fault.uniform ~seed:11 0.25 in
  List.iter
    (fun (params, rep) ->
      Alcotest.(check bool) "same coordinate, same draw" true
        (Fault.at plan ~params ~rep = Fault.at plan ~params ~rep))
    (Camp.coordinates design)

let test_fault_none_never_fires () =
  List.iter
    (fun (params, rep) ->
      Alcotest.(check bool) "clean plan injects nothing" true
        (Fault.at Fault.none ~params ~rep = None))
    (Camp.coordinates design)

let test_fault_rate_one_always_fires () =
  let plan = { Fault.none with Fault.fp_crash = 1. } in
  List.iter
    (fun (params, rep) ->
      match Fault.at plan ~params ~rep with
      | Some { Fault.f_kind = Fault.Crash; _ } -> ()
      | _ -> Alcotest.fail "rate-1 crash plan must crash every coordinate")
    (Camp.coordinates design)

let test_fault_spec_roundtrip () =
  let plan =
    { Fault.fp_seed = 9; fp_crash = 0.05; fp_hang = 0.02; fp_straggler = 0.04;
      fp_corrupt = 0.01; fp_persistent = 0.25; fp_transient_attempts = 2 }
  in
  (match Fault.of_spec (Fault.spec_of plan) with
  | Ok p -> Alcotest.(check bool) "spec_of/of_spec roundtrip" true (p = plan)
  | Error e -> Alcotest.fail e);
  (match Fault.of_spec "" with
  | Ok p -> Alcotest.(check bool) "empty spec is the clean plan" true
      (p = Fault.none)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Fault.of_spec bad with
      | Ok _ -> Alcotest.fail ("spec accepted: " ^ bad)
      | Error _ -> ())
    [ "crash=2"; "crash"; "frobnicate=0.5"; "attempts=0"; "crash=-0.1" ]

let test_transient_expires () =
  let f = { Fault.f_kind = Fault.Crash; f_persistence = Fault.Transient 2 } in
  Alcotest.(check bool) "fires on attempt 0" true
    (Fault.active f ~attempt:0 = Some Fault.Crash);
  Alcotest.(check bool) "fires on attempt 1" true
    (Fault.active f ~attempt:1 = Some Fault.Crash);
  Alcotest.(check bool) "expired on attempt 2" true
    (Fault.active f ~attempt:2 = None);
  let p = { f with Fault.f_persistence = Fault.Persistent } in
  Alcotest.(check bool) "persistent never expires" true
    (Fault.active p ~attempt:99 = Some Fault.Crash)

(* -- fault-free bit-identity ------------------------------------------------- *)

let test_campaign_identity () =
  let clean = Exp.run_design tiny_app machine design in
  let report = Camp.run tiny_app machine design in
  Alcotest.(check int) "one attempt per coordinate"
    (List.length clean) report.Camp.cp_attempts;
  Alcotest.(check int) "no retries" 0 report.Camp.cp_retries;
  Alcotest.(check bool) "bit-identical to run_design" true
    (compare report.Camp.cp_runs clean = 0)

let test_campaign_identity_metrics_parity () =
  (* Per-run simulator metrics must match run_design's exactly; the
     campaign merely adds its own campaign.* counters on top. *)
  let snap_of f =
    let m = Obs_metrics.create () in
    f m;
    Obs_metrics.snapshot m
  in
  let clean =
    snap_of (fun m -> ignore (Exp.run_design ~metrics:m tiny_app machine design))
  in
  let camp =
    snap_of (fun m -> ignore (Camp.run ~metrics:m tiny_app machine design))
  in
  List.iter
    (fun (name, v) ->
      Alcotest.(check (option int)) ("counter " ^ name) (Some v)
        (Obs_metrics.find_counter camp name))
    clean.Obs_metrics.counters;
  Alcotest.(check (option int)) "campaign.attempts"
    (Some (List.length (Camp.coordinates design)))
    (Obs_metrics.find_counter camp "campaign.attempts");
  Alcotest.(check (option int)) "campaign.retries" (Some 0)
    (Obs_metrics.find_counter camp "campaign.retries")

(* -- retries and abandonment ------------------------------------------------- *)

(* A plan whose transient faults always die before the retry budget:
   every coordinate must recover and the surviving dataset must be
   bit-identical to the clean one. *)
let transient_plan =
  { Fault.none with
    Fault.fp_seed = 5; fp_crash = 0.2; fp_hang = 0.15; fp_persistent = 0.;
    fp_transient_attempts = 2 }

let test_transient_recovery () =
  let clean = Exp.run_design tiny_app machine design in
  let report =
    Camp.run ~plan:transient_plan
      ~retry:{ Camp.default_retry with Camp.rt_max_attempts = 3 }
      tiny_app machine design
  in
  Alcotest.(check int) "nothing abandoned" 0 report.Camp.cp_abandoned;
  Alcotest.(check bool) "faults actually fired" true
    (report.Camp.cp_retries > 0);
  Alcotest.(check bool) "retried runs bit-identical to clean" true
    (compare report.Camp.cp_runs clean = 0);
  Alcotest.(check bool) "failed attempts waste core-hours" true
    (report.Camp.cp_wasted_core_hours > 0.);
  Alcotest.(check bool) "retries pay backoff" true
    (report.Camp.cp_backoff_core_hours > 0.)

let test_persistent_abandonment () =
  let plan =
    { Fault.none with
      Fault.fp_seed = 3; fp_crash = 0.4; fp_persistent = 1. }
  in
  let report = Camp.run ~plan tiny_app machine design in
  Alcotest.(check bool) "some coordinates abandoned" true
    (report.Camp.cp_abandoned > 0);
  Alcotest.(check int) "records cover every coordinate"
    (List.length (Camp.coordinates design))
    (List.length report.Camp.cp_records);
  Alcotest.(check int) "runs + abandoned = coordinates"
    (List.length (Camp.coordinates design))
    (List.length report.Camp.cp_runs + report.Camp.cp_abandoned);
  (* Every abandoned record burned the full attempt budget. *)
  List.iter
    (fun r ->
      match r.Camp.rc_outcome with
      | Camp.Abandoned kind ->
        Alcotest.(check int) "all attempts consumed"
          Camp.default_retry.Camp.rt_max_attempts r.Camp.rc_attempts;
        Alcotest.(check string) "abandoned by the crash" "crash" kind
      | Camp.Completed _ -> ())
    report.Camp.cp_records;
  (* C3: the validation layer must report exactly the dropped configs. *)
  let gaps = Perf_taint.Validation.grid_gaps ~design report.Camp.cp_runs in
  Alcotest.(check int) "expected grid size" 6 gaps.Perf_taint.Validation.gr_expected;
  Alcotest.(check bool) "incomplete grid detected" false
    (Perf_taint.Validation.complete_grid gaps);
  Alcotest.(check int) "complete + partial + missing = expected"
    gaps.Perf_taint.Validation.gr_expected
    (gaps.Perf_taint.Validation.gr_complete
    + List.length gaps.Perf_taint.Validation.gr_partial
    + List.length gaps.Perf_taint.Validation.gr_missing)

let test_grid_gaps_clean () =
  let runs = Exp.run_design tiny_app machine design in
  let gaps = Perf_taint.Validation.grid_gaps ~design runs in
  Alcotest.(check bool) "clean campaign leaves no gaps" true
    (Perf_taint.Validation.complete_grid gaps);
  Alcotest.(check int) "all complete" 6 gaps.Perf_taint.Validation.gr_complete

(* -- journal ----------------------------------------------------------------- *)

let sample_records () =
  let report =
    Camp.run ~plan:transient_plan
      ~retry:{ Camp.default_retry with Camp.rt_max_attempts = 3 }
      tiny_app machine design
  in
  report.Camp.cp_records

let test_record_roundtrip () =
  List.iter
    (fun r ->
      match Camp.record_of_line ~mode:design.Exp.mode (Camp.record_to_line r) with
      | Ok r' ->
        Alcotest.(check bool) "journal line roundtrips exactly" true
          (compare r r' = 0)
      | Error e -> Alcotest.fail e)
    (sample_records ());
  (* An abandoned record must roundtrip too. *)
  let ab =
    { Camp.rc_params = [ ("n", 2.); ("p", 4.) ]; rc_rep = 1; rc_attempts = 3;
      rc_faults = [ "crash"; "hang"; "crash" ]; rc_wasted_s = 1.5;
      rc_backoff_s = 90.; rc_outcome = Camp.Abandoned "crash" }
  in
  match Camp.record_of_line ~mode:design.Exp.mode (Camp.record_to_line ab) with
  | Ok r' -> Alcotest.(check bool) "abandoned roundtrip" true (compare ab r' = 0)
  | Error e -> Alcotest.fail e

let test_journal_rejects_garbage () =
  (match Camp.record_of_line ~mode:design.Exp.mode "not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  match Camp.record_of_line ~mode:design.Exp.mode "{\"params\":3}" with
  | Ok _ -> Alcotest.fail "wrong shape accepted"
  | Error _ -> ()

let with_temp_journal f =
  let path = Filename.temp_file "campaign" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_kill_resume_bit_identity () =
  with_temp_journal @@ fun journal ->
  let retry = { Camp.default_retry with Camp.rt_max_attempts = 3 } in
  let uninterrupted =
    Camp.run ~plan:transient_plan ~retry tiny_app machine design
  in
  (* Kill after 5 coordinates... *)
  let partial =
    Camp.run_journaled ~plan:transient_plan ~retry ~limit:5 ~journal
      ~resume:false tiny_app machine design
  in
  Alcotest.(check bool) "partial campaign interrupted" true
    partial.Camp.cp_interrupted;
  (* ...then resume from the journal. *)
  let resumed =
    Camp.run_journaled ~plan:transient_plan ~retry ~journal ~resume:true
      tiny_app machine design
  in
  Alcotest.(check int) "5 coordinates restored" 5 resumed.Camp.cp_resumed;
  Alcotest.(check bool) "resumed not interrupted" false
    resumed.Camp.cp_interrupted;
  Alcotest.(check bool) "resumed runs bit-identical to uninterrupted" true
    (compare resumed.Camp.cp_runs uninterrupted.Camp.cp_runs = 0);
  Alcotest.(check bool) "resumed records bit-identical" true
    (compare resumed.Camp.cp_records uninterrupted.Camp.cp_records = 0);
  (* The model fitted from the resumed dataset is the same model. *)
  let fit runs =
    let data = Exp.total_dataset runs ~params:[ "n" ] in
    (Model.Search.multi data).Model.Search.model
  in
  Alcotest.(check string) "same fitted model"
    (Model.Expr.to_string (fit uninterrupted.Camp.cp_runs))
    (Model.Expr.to_string (fit resumed.Camp.cp_runs))

let test_resume_rejects_mismatched_header () =
  with_temp_journal @@ fun journal ->
  ignore
    (Camp.run_journaled ~plan:transient_plan ~limit:2 ~journal ~resume:false
       tiny_app machine design);
  let other = { design with Exp.seed = design.Exp.seed + 1 } in
  try
    ignore
      (Camp.run_journaled ~plan:transient_plan ~journal ~resume:true tiny_app
         machine other);
    Alcotest.fail "mismatched journal accepted"
  with Failure _ -> ()

(* A journal whose last line was torn mid-write (the on-disk state a
   SIGKILL leaves behind): resume must cut the partial record off, count
   it in campaign.journal_torn, re-execute its coordinate, and converge
   on the uninterrupted dataset bit-identically. *)
let test_resume_tolerates_torn_trailing_line () =
  with_temp_journal @@ fun journal ->
  let retry = { Camp.default_retry with Camp.rt_max_attempts = 3 } in
  let uninterrupted =
    Camp.run ~plan:transient_plan ~retry tiny_app machine design
  in
  ignore
    (Camp.run_journaled ~plan:transient_plan ~retry ~limit:5 ~journal
       ~resume:false tiny_app machine design);
  (* Tear the trailing line: keep only half of the final record. *)
  let content = read_file journal in
  let body = String.sub content 0 (String.length content - 1) in
  let last_nl = String.rindex body '\n' in
  let len = String.length body - last_nl - 1 in
  let oc = open_out_bin journal in
  output_string oc (String.sub content 0 (last_nl + 1 + (len / 2)));
  close_out oc;
  (match Camp.load_journal ~mode:design.Exp.mode
           ~expected_header:
             (Camp.header_line ~app_name:tiny_app.Spec.aname
                ~plan:transient_plan ~retry design)
           journal
   with
  | Error e -> Alcotest.fail e
  | Ok (records, torn) ->
    Alcotest.(check int) "torn line detected" 1 torn;
    Alcotest.(check int) "clean prefix survives" 4 (List.length records));
  let metrics = Obs_metrics.create () in
  let resumed =
    Camp.run_journaled ~metrics ~plan:transient_plan ~retry ~journal
      ~resume:true tiny_app machine design
  in
  Alcotest.(check int) "4 coordinates restored" 4 resumed.Camp.cp_resumed;
  Alcotest.(check (option int)) "campaign.journal_torn counted" (Some 1)
    (Obs_metrics.find_counter (Obs_metrics.snapshot metrics)
       "campaign.journal_torn");
  Alcotest.(check bool) "resumed records bit-identical to uninterrupted" true
    (compare resumed.Camp.cp_records uninterrupted.Camp.cp_records = 0);
  (* The rewritten journal is canonical again: loading it back yields
     every record with nothing torn. *)
  match Camp.load_journal ~mode:design.Exp.mode
          ~expected_header:
            (Camp.header_line ~app_name:tiny_app.Spec.aname
               ~plan:transient_plan ~retry design)
          journal
  with
  | Error e -> Alcotest.fail e
  | Ok (records, torn) ->
    Alcotest.(check int) "no torn line after rewrite" 0 torn;
    Alcotest.(check int) "full journal"
      (List.length uninterrupted.Camp.cp_records)
      (List.length records)

(* A parse failure before the last line is corruption, not a torn
   flush — the load must refuse, naming the journal. *)
let test_load_rejects_mid_file_corruption () =
  with_temp_journal @@ fun journal ->
  let retry = { Camp.default_retry with Camp.rt_max_attempts = 3 } in
  ignore
    (Camp.run_journaled ~plan:transient_plan ~retry ~limit:5 ~journal
       ~resume:false tiny_app machine design);
  let lines = String.split_on_char '\n' (read_file journal) in
  let oc = open_out_bin journal in
  List.iteri
    (fun i l ->
      if l <> "" then begin
        output_string oc (if i = 2 then "{\"corrupt\":" else l);
        output_char oc '\n'
      end)
    lines;
  close_out oc;
  match Camp.load_journal ~mode:design.Exp.mode
          ~expected_header:
            (Camp.header_line ~app_name:tiny_app.Spec.aname
               ~plan:transient_plan ~retry design)
          journal
  with
  | Ok _ -> Alcotest.fail "mid-file corruption accepted"
  | Error _ -> ()

(* -- retry validation --------------------------------------------------------- *)

let test_retry_validation () =
  let expect_invalid field retry =
    try
      ignore (Camp.run ~retry tiny_app machine design);
      Alcotest.fail (field ^ " accepted")
    with Invalid_argument msg ->
      Alcotest.(check bool) (field ^ " named in the message") true
        (contains msg field)
  in
  expect_invalid "rt_max_attempts"
    { Camp.default_retry with Camp.rt_max_attempts = 0 };
  expect_invalid "rt_backoff_s"
    { Camp.default_retry with Camp.rt_backoff_s = -1. };
  expect_invalid "rt_backoff_s"
    { Camp.default_retry with Camp.rt_backoff_s = Float.nan };
  expect_invalid "rt_backoff_mult"
    { Camp.default_retry with Camp.rt_backoff_mult = 0.5 };
  expect_invalid "rt_backoff_mult"
    { Camp.default_retry with Camp.rt_backoff_mult = Float.nan };
  expect_invalid "rt_hang_timeout_s"
    { Camp.default_retry with Camp.rt_hang_timeout_s = 0. };
  expect_invalid "rt_hang_timeout_s"
    { Camp.default_retry with Camp.rt_hang_timeout_s = Float.nan };
  (* The defaults and any sane policy still pass. *)
  ignore (Camp.run tiny_app machine design)

(* -- robust fit under degradation ------------------------------------------- *)

(* The term that contributes most at the top corner of the grid — the
   asymptotically decisive part of the model.  Weak secondary terms
   (lulesh's communication term contributes <1% of the total at the
   largest configuration) flip under noise for the classic fit too, so
   the stability assertion is about the decisive term only. *)
let dominant_term (m : Model.Expr.model) ~at =
  let contribution (t : Model.Expr.compound_term) =
    Float.abs
      (t.Model.Expr.coeff *. Model.Expr.eval_factors t.Model.Expr.factors at)
  in
  match m.Model.Expr.terms with
  | [] -> None
  | ts ->
    let best =
      List.fold_left
        (fun a t -> if contribution t > contribution a then t else a)
        (List.hd ts) ts
    in
    Some best.Model.Expr.factors

(* A coarse search space with well-separated candidate shapes, like the
   campaign fuzz oracle's: with the full Extra-P exponent lattice, 2%
   noise alone flips between neighbouring exponents (2.25 vs 8/3), which
   would make this test assert stability the classic fit doesn't have
   either. *)
let coarse_config =
  { Model.Search.default_config with
    Model.Search.exponents = [ 0.; 0.5; 1.; 2.; 3. ];
    log_exponents = [ 0; 1 ];
    max_terms = 2 }

(* The acceptance bar: <= 10% transient faults (including stragglers and
   corrupted-duration outliers that complete and pollute the dataset),
   plus retries and MAD rejection, must select the same best model term
   as a clean campaign. *)
let degraded_plan seed =
  { Fault.fp_seed = seed; fp_crash = 0.03; fp_hang = 0.02;
    fp_straggler = 0.03; fp_corrupt = 0.02; fp_persistent = 0.;
    fp_transient_attempts = 2 }

let robust_same_term app grid fit_params seed () =
  let design =
    { Exp.grid; reps = 5; mode = Instr.Full; sigma = 0.02; seed = 42 }
  in
  let clean = Exp.run_design app machine design in
  let report =
    Camp.run ~plan:(degraded_plan seed)
      ~retry:{ Camp.default_retry with Camp.rt_max_attempts = 3 }
      app machine design
  in
  Alcotest.(check int) "nothing abandoned" 0 report.Camp.cp_abandoned;
  Alcotest.(check bool) "faults degraded the dataset" true
    (List.exists (fun r -> r.Camp.rc_faults <> []) report.Camp.cp_records);
  let at =
    List.filter_map
      (fun (p, vs) ->
        if List.mem p fit_params then
          Some (p, List.fold_left Float.max neg_infinity vs)
        else None)
      grid
  in
  let best runs robust =
    let data = Exp.total_dataset runs ~params:fit_params in
    let m =
      if robust then
        (fst (Model.Search.multi_robust ~config:coarse_config data))
          .Model.Search.model
      else (Model.Search.multi ~config:coarse_config data).Model.Search.model
    in
    dominant_term m ~at
  in
  let clean_best = best clean false in
  Alcotest.(check bool) "clean fit found a scaling term" true
    (clean_best <> None);
  Alcotest.(check bool) "robust fit recovers the clean best term" true
    (clean_best = best report.Camp.cp_runs true)

let test_robust_fit_lulesh =
  robust_same_term Apps.Lulesh_spec.app
    [ ("p", Apps.Lulesh_spec.p_values);
      ("size", Apps.Lulesh_spec.size_values); ("r", [ 8. ]) ]
    [ "p"; "size" ] 17

let test_robust_fit_minicg =
  robust_same_term Apps.Minicg_spec.app
    [ ("p", Apps.Minicg_spec.p_values); ("n", Apps.Minicg_spec.n_values);
      ("r", [ 8. ]) ]
    [ "p"; "n" ] 23

(* -- observability ----------------------------------------------------------- *)

let test_campaign_counters_in_snapshot () =
  let m = Obs_metrics.create () in
  ignore
    (Camp.run ~metrics:m ~plan:transient_plan
       ~retry:{ Camp.default_retry with Camp.rt_max_attempts = 3 }
       tiny_app machine design);
  let snap = Obs_metrics.snapshot m in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " interned") true
        (Obs_metrics.find_counter snap name <> None))
    Camp.counters;
  let faults =
    List.fold_left
      (fun acc kind ->
        acc
        + Option.value ~default:0
            (Obs_metrics.find_counter snap ("campaign.faults." ^ kind)))
      0 Fault.kind_names
  in
  Alcotest.(check bool) "fault counters recorded the injections" true
    (faults > 0);
  Alcotest.(check (option int)) "retry counter matches report"
    (Obs_metrics.find_counter snap "campaign.retries")
    (Some
       (let report =
          Camp.run ~plan:transient_plan
            ~retry:{ Camp.default_retry with Camp.rt_max_attempts = 3 }
            tiny_app machine design
        in
        report.Camp.cp_retries))

(* -- documentation drift ----------------------------------------------------- *)

(* [Campaign.counters] is the single definition of the campaign counter
   names; the table in doc/OBSERVABILITY.md must list every row
   verbatim (same pattern as the engine's instruction counters). *)
let test_campaign_counter_doc_in_sync () =
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
    Camp.counters

(* -- journal JSON round-trip --------------------------------------------------
   The checkpoint journal, the serving catalog and the daemon's wire
   protocol all ride [Obs_json]; its string escaping must round-trip
   every byte — control characters, quotes, backslashes and non-ASCII
   bytes included — or a resumed campaign would diverge on the first
   awkward app name. *)

let any_string = QCheck.string_gen QCheck.Gen.char

let prop_jsonio_string_roundtrip =
  QCheck.Test.make ~count:1000
    ~name:"Jsonio string escaping round-trips arbitrary bytes" any_string
    (fun s ->
      match Obs_json.(parse (to_string (Str s))) with
      | Ok (Obs_json.Str s') -> String.equal s s'
      | _ -> false)

(* Values are strings or floats of every kind: random bit patterns, NaN,
   the infinities, and integral values around the 1e15 switch from
   "%.1f" to "%.17g". *)
let any_value =
  let print = function
    | Obs_json.Float f -> Printf.sprintf "Float %h" f
    | v -> Obs_json.to_string v
  in
  QCheck.make ~print
    QCheck.Gen.(
      oneof
        [ map (fun s -> Obs_json.Str s) (string_of char);
          map
            (fun f -> Obs_json.Float f)
            (oneof
               [ float; map Int64.float_of_bits ui64;
                 oneofl
                   [ Float.nan; Float.infinity; Float.neg_infinity; -0.;
                     1e15 -. 1.; 1e15; 3e16; 1e17 ] ]) ])

(* A non-finite float reads back as [Null], a finite one bit for bit
   through [to_float] (an integral float from 1e15 up to 1e17 prints
   without a fraction and parses as [Int]). *)
let same_value v v' =
  match v with
  | Obs_json.Float f when not (Float.is_finite f) -> v' = Obs_json.Null
  | Obs_json.Float f -> (
    match Obs_json.to_float v' with
    | Some g -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
    | None -> false)
  | v -> v = v'

let prop_jsonio_obj_roundtrip =
  QCheck.Test.make ~count:500
    ~name:"Jsonio object with arbitrary keys/values round-trips"
    QCheck.(small_list (pair any_string any_value))
    (fun fields ->
      match Obs_json.(parse (to_string (Obj fields))) with
      | Ok (Obs_json.Obj fields') ->
        List.length fields = List.length fields'
        && List.for_all2
             (fun (k, v) (k', v') -> String.equal k k' && same_value v v')
             fields fields'
      | _ -> false)

(* Resume and catalog keys compare printed text, not values: a journal
   header or key must print the same bytes as the build that wrote it.
   The reference is the writer's specification spelled out with Printf. *)
let reference_float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let prop_jsonio_float_bytes =
  let edges =
    List.concat_map
      (fun f -> [ f; -.f ])
      [ 0.; 1.; 1e15 -. 1.; 1e15; 0x1p53; 0x1p53 +. 2.;
        Int64.float_of_bits 1L ]
  in
  QCheck.Test.make ~count:5000
    ~name:"Jsonio prints floats byte for byte as Printf"
    (QCheck.make
       ~print:(Printf.sprintf "%h")
       QCheck.Gen.(
         oneof
           [ map Int64.float_of_bits ui64;
             map float_of_int
               (int_range (-999_999_999_999_999) 999_999_999_999_999);
             map float_of_int small_signed_int;
             oneofl edges ]))
    (fun f ->
      String.equal (Obs_json.to_string (Obs_json.Float f))
        (reference_float_repr f))

(* -- the codec against its reference ---------------------------------------------
   test/json_reference.ml is the writer and parser as they stood before
   the parser stopped allocating per byte.  Keys and journal headers
   compare printed bytes, and a refused line is reported by its error
   text, so both must agree exactly: the same bytes out, the same value
   or the same error string back, on well-formed text and on text a few
   byte edits away from it. *)

(* Bitwise on floats, so -0. and 0. differ. *)
let rec same_json a b =
  match (a, b) with
  | Obs_json.Float f, Obs_json.Float g ->
    Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
  | Obs_json.List xs, Obs_json.List ys ->
    List.compare_lengths xs ys = 0 && List.for_all2 same_json xs ys
  | Obs_json.Obj xs, Obs_json.Obj ys ->
    List.compare_lengths xs ys = 0
    && List.for_all2
         (fun (k, x) (l, y) -> String.equal k l && same_json x y)
         xs ys
  | (Obs_json.Null | Obs_json.Bool _ | Obs_json.Int _ | Obs_json.Str _), _ ->
    a = b
  | _ -> false

let parses_as_reference text =
  match (Obs_json.parse text, Json_reference.parse text) with
  | Ok v, Ok v' -> same_json v v'
  | Error e, Error e' -> String.equal e e'
  | _ -> false

(* Strings lean on the bytes the codec treats specially. *)
let json_string =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [ (3, printable); (2, char);
             (2, oneofl [ '"'; '\\'; '/'; 'u'; '\n'; '\t'; '\000'; '\031';
                          '\127'; '\255' ]) ])
      (int_bound 12))

let json_tree =
  QCheck.Gen.(
    let leaf =
      oneof
        [ return Obs_json.Null;
          map (fun b -> Obs_json.Bool b) bool;
          map
            (fun i -> Obs_json.Int i)
            (oneof [ int; small_signed_int; oneofl [ min_int; max_int ] ]);
          map
            (fun f -> Obs_json.Float f)
            (oneof
               [ float; map Int64.float_of_bits ui64;
                 map float_of_int small_signed_int;
                 oneofl [ Float.nan; Float.infinity; -0.; 1e15; 0x1p53 ] ]);
          map (fun s -> Obs_json.Str s) json_string ]
    in
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [ (2, leaf);
                 (1, map (fun l -> Obs_json.List l)
                       (list_size (int_bound 4) (self (n - 1))));
                 (1, map (fun fs -> Obs_json.Obj fs)
                       (list_size (int_bound 4)
                          (pair json_string (self (n - 1))))) ]))

(* One to four edits, each a replaced, inserted or deleted byte or a
   truncation; the bytes lean on the ones the grammar reacts to. *)
let edited text =
  QCheck.Gen.(
    let byte =
      frequency
        [ (1, char);
          (3, oneofl (List.of_seq (String.to_seq "\"\\{}[],:0-+.eEtfnu/ \t"))) ]
    in
    let edit s =
      let n = String.length s in
      let* i = int_bound n in
      let* b = byte in
      let+ kind = int_bound 3 in
      let cut = String.sub s 0 i and rest = String.sub s i (n - i) in
      match kind with
      | 0 when i < n -> cut ^ String.make 1 b ^ String.sub rest 1 (n - i - 1)
      | 1 when i < n -> cut ^ String.sub rest 1 (n - i - 1)
      | 2 -> cut
      | _ -> cut ^ String.make 1 b ^ rest
    in
    let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
    int_range 1 4 >>= fun k -> go k text)

let prop_codec_reference_trees =
  QCheck.Test.make ~count:2000
    ~name:"Jsonio codec = reference on random trees and their edits"
    (QCheck.make
       ~print:(fun (v, e) -> Printf.sprintf "%S edited to %S"
                 (Json_reference.to_string v) e)
       QCheck.Gen.(
         let* v = json_tree in
         let+ e = edited (Json_reference.to_string v) in
         (v, e)))
    (fun (v, e) ->
      let text = Obs_json.to_string v in
      String.equal text (Json_reference.to_string v)
      && parses_as_reference text && parses_as_reference e)

(* Index lines of real cold fits, one of them fault-injected, and the
   request lines a client sends. *)
let real_lines =
  lazy
    (let fit name faults =
       let r = Option.get (Serve.Registry.find name) in
       let design =
         { Exp.grid = [ ("p", [ 2.; 4.; 8. ]); ("size", [ 16. ]); ("r", [ 8. ]) ];
           reps = 2; mode = Instr.Full; sigma = 0.02; seed = 42 }
       in
       let plan = Result.get_ok (Fault.of_spec faults) in
       let app = r.Serve.Registry.r_app in
       let key =
         Serve.Catalog.key_of_digest ~app_name:app.Spec.aname
           ~program_digest:(Serve.Registry.program_digest r) ~design ~plan
           ~retry:Camp.default_retry
       in
       Serve.Catalog.entry_to_line
         (Serve.Catalog.fit ~app ~machine:Serve.Registry.machine ~design ~plan
            ~retry:Camp.default_retry ~key ())
     in
     [ fit "lulesh" ""; fit "milc" "crash=0.05,hang=0.02,straggler=0.05,seed=7";
       {|{"op":"predict","app":"lulesh","seed":7,"faults":"","coords":{"p":64,"size":35}}|};
       {|{"op":"fit","app":"milc","grid":{"p":[2,4,8],"size":[16],"r":[8]},"reps":2,"sigma":0.02,"faults":"crash=0.05,hang=0.02,straggler=0.05"}|};
       {|{"op":"predict","app":"minicg","coords":{"p":4,"n":1e6},"backoff":30.0,"retries":-3}|};
       {|{"op":"invalidate","key":"7ad3193bf9c598d2b79c75c3a7bda195"}|};
       {|{"op":"fit","app":"lu\"le\\sh\u0007\/","seed":-0} |};
       {|{"op":"stats","x":[true,false,null,[],{}]}|};
       (* integers around the 63-bit range *)
       {|{"op":"fit","app":"minicg","seed":4611686018427387904,"reps":-99999999999999999999,"retries":999999999999999999,"backoff":-4611686018427387904}|} ])

let prop_codec_reference_lines =
  QCheck.Test.make ~count:3000
    ~name:"Jsonio parser = reference on edited catalog and request lines"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         let* i = int_bound 8 in
         edited (List.nth (Lazy.force real_lines) i)))
    (fun e ->
      List.for_all parses_as_reference (Lazy.force real_lines)
      && parses_as_reference e)

(* Catalog keys and journal headers embed [Fault.spec_of]; the empty
   plan's spec is printed once, and every plan must still print the
   bytes of the seven-conversion Printf. *)
let reference_spec (p : Fault.plan) =
  Printf.sprintf
    "crash=%g,hang=%g,straggler=%g,corrupt=%g,persistent=%g,attempts=%d,seed=%d"
    p.fp_crash p.fp_hang p.fp_straggler p.fp_corrupt p.fp_persistent
    p.fp_transient_attempts p.fp_seed

let prop_fault_spec_bytes =
  let spec =
    QCheck.Gen.(
      let rate =
        oneof
          [ oneofl [ "0"; "-0"; "0.0"; "-0e3"; "1"; "0.05"; "1e-7"; "5e-324" ];
            map (Printf.sprintf "%.17g") (float_bound_inclusive 1.) ]
      in
      let field =
        oneof
          [ map (fun v -> "crash=" ^ v) rate; map (fun v -> "hang=" ^ v) rate;
            map (fun v -> "straggler=" ^ v) rate;
            map (fun v -> "corrupt=" ^ v) rate;
            map (fun v -> "persistent=" ^ v) rate;
            map (Printf.sprintf "attempts=%d") (int_range 1 4);
            map (Printf.sprintf "seed=%d") (oneof [ int_range (-2) 2; int ]) ]
      in
      map (String.concat ",") (list_size (int_bound 4) field))
  in
  QCheck.Test.make ~count:1000 ~name:"fault spec bytes = Printf reference"
    (QCheck.make ~print:Fun.id spec)
    (fun spec ->
      let field_by_field =
        { Fault.fp_seed = 0; fp_crash = 0.; fp_hang = 0.; fp_straggler = 0.;
          fp_corrupt = 0.; fp_persistent = 0.; fp_transient_attempts = 2 }
      in
      let parsed = Result.get_ok (Fault.of_spec spec) in
      let none_text = Fault.spec_of Fault.none in
      List.for_all
        (fun p -> String.equal (Fault.spec_of p) (reference_spec p))
        [ Fault.none; field_by_field; parsed ]
      && Fault.spec_of field_by_field == none_text
      (* only a plan whose spec reads as none's shares its text *)
      && Fault.spec_of parsed == none_text
         = String.equal (reference_spec parsed) none_text)

let test_jsonio_adversarial_strings () =
  List.iter
    (fun s ->
      match Obs_json.(parse (to_string (Str s))) with
      | Ok (Obs_json.Str s') ->
        Alcotest.(check string) (Printf.sprintf "round-trip %S" s) s s'
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S came back as a non-string" s)
      | Error e -> Alcotest.fail (Printf.sprintf "%S: %s" s e))
    [
      "";
      "\"";
      "\\";
      "\\\\\"";
      "a\"b\\c\nd\te\rf";
      "\x00\x01\x1f";
      "caf\xc3\xa9 \xff\xfe";
      "{\"op\":\"stats\"}";
      "trailing backslash \\";
    ]

(* A kill can stop the journal writer after any byte.  Cut a faulty
   campaign's journal at every offset after the header and resume: the
   journal must end byte-identical to the uninterrupted one (a record
   glued onto an unterminated line would not) and the records with it. *)
let test_every_journal_prefix_resumes () =
  with_temp_journal @@ fun journal ->
  let retry = { Camp.default_retry with Camp.rt_max_attempts = 3 } in
  let design = { design with Exp.reps = 1 } in
  let run ~resume =
    Camp.run_journaled ~plan:transient_plan ~retry ~journal ~resume tiny_app
      machine design
  in
  let full = run ~resume:false in
  let bytes = read_file journal in
  for cut = String.index bytes '\n' + 1 to String.length bytes do
    let oc = open_out_bin journal in
    output_string oc (String.sub bytes 0 cut);
    close_out oc;
    let resumed = run ~resume:true in
    if not (String.equal (read_file journal) bytes) then
      Alcotest.failf "journal cut at byte %d: resumed bytes differ" cut;
    if compare resumed.Camp.cp_records full.Camp.cp_records <> 0 then
      Alcotest.failf "journal cut at byte %d: resumed records differ" cut
  done

let tests =
  [
    Alcotest.test_case "fault draws are deterministic" `Quick
      test_fault_deterministic;
    Alcotest.test_case "clean plan never fires" `Quick
      test_fault_none_never_fires;
    Alcotest.test_case "rate-1 plan always fires" `Quick
      test_fault_rate_one_always_fires;
    Alcotest.test_case "fault spec roundtrip" `Quick test_fault_spec_roundtrip;
    Alcotest.test_case "transient faults expire" `Quick test_transient_expires;
    Alcotest.test_case "fault-free campaign = run_design" `Quick
      test_campaign_identity;
    Alcotest.test_case "fault-free metrics parity" `Quick
      test_campaign_identity_metrics_parity;
    Alcotest.test_case "transient faults recover bit-identically" `Quick
      test_transient_recovery;
    Alcotest.test_case "persistent faults abandon coordinates" `Quick
      test_persistent_abandonment;
    Alcotest.test_case "clean grid has no gaps" `Quick test_grid_gaps_clean;
    Alcotest.test_case "journal record roundtrip" `Quick test_record_roundtrip;
    Alcotest.test_case "journal rejects garbage" `Quick
      test_journal_rejects_garbage;
    Alcotest.test_case "kill/resume is bit-identical" `Quick
      test_kill_resume_bit_identity;
    Alcotest.test_case "resume rejects a mismatched journal" `Quick
      test_resume_rejects_mismatched_header;
    Alcotest.test_case "resume tolerates a torn trailing line" `Quick
      test_resume_tolerates_torn_trailing_line;
    Alcotest.test_case "load rejects mid-file corruption" `Quick
      test_load_rejects_mid_file_corruption;
    Alcotest.test_case "retry fields validated on entry" `Quick
      test_retry_validation;
    Alcotest.test_case "robust fit survives faults (lulesh)" `Quick
      test_robust_fit_lulesh;
    Alcotest.test_case "robust fit survives faults (minicg)" `Quick
      test_robust_fit_minicg;
    Alcotest.test_case "campaign counters in the snapshot" `Quick
      test_campaign_counters_in_snapshot;
    Alcotest.test_case "campaign counter table in sync with doc" `Quick
      test_campaign_counter_doc_in_sync;
    Alcotest.test_case "adversarial journal strings round-trip" `Quick
      test_jsonio_adversarial_strings;
    Seeded.to_alcotest prop_jsonio_string_roundtrip;
    Seeded.to_alcotest prop_jsonio_obj_roundtrip;
    Seeded.to_alcotest prop_jsonio_float_bytes;
    Seeded.to_alcotest prop_codec_reference_trees;
    Seeded.to_alcotest prop_codec_reference_lines;
    Seeded.to_alcotest prop_fault_spec_bytes;
    Alcotest.test_case "every byte prefix of the journal resumes" `Quick
      test_every_journal_prefix_resumes;
  ]
