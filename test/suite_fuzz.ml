(** Tests of the fuzzing subsystem itself: generator coverage, shrinker
    termination/minimality, campaign cleanliness on the real pipeline, the
    corpus save/replay cycle — and the crucial negative control: a
    deliberately weakened taint analysis must be caught by the soundness
    oracle with a small shrunk counterexample. *)

module G = Fuzz.Gen
module Sh = Fuzz.Shrink
module O = Fuzz.Oracle
module D = Fuzz.Driver

let rec stmt_has_loop = function
  | G.For _ | G.While_half _ -> true
  | G.Seq (a, b) | G.If (_, a, b) -> stmt_has_loop a || stmt_has_loop b
  | G.Work _ | G.Call_helper _ | G.Shared_store _ | G.Float_work _ -> false

let has_loop (p : G.prog) =
  stmt_has_loop p.G.main || List.exists stmt_has_loop p.G.helpers

(* The grammar must not degenerate: loops, branches and calls all have to
   appear often enough for the oracles to bite. *)
let test_generator_coverage () =
  let st = Fuzz.Seed.state () in
  let progs = List.init 300 (fun _ -> G.generate st) in
  let count pred = List.length (List.filter pred progs) in
  let loops = count has_loop in
  let helpers = count (fun p -> p.G.helpers <> []) in
  let multi = count (fun p -> p.G.nparams > 1) in
  Alcotest.(check bool)
    (Printf.sprintf "loops in most programs (%d/300)" loops)
    true (loops > 150);
  Alcotest.(check bool)
    (Printf.sprintf "helpers present (%d/300)" helpers)
    true (helpers > 100);
  Alcotest.(check bool)
    (Printf.sprintf "multiple params (%d/300)" multi)
    true (multi > 100)

let prop_marked_params_found =
  QCheck.Test.make ~count:100 ~name:"every generated parameter is marked"
    Sh.arbitrary (fun p ->
      List.length (O.marked_params (G.to_program p)) = p.G.nparams)

let prop_shrink_decreases =
  QCheck.Test.make ~count:200 ~name:"every shrink candidate is smaller"
    Sh.arbitrary (fun p ->
      let n = Sh.size p in
      List.for_all (fun q -> Sh.size q < n) (Sh.candidates p))

let prop_minimize_fixpoint =
  QCheck.Test.make ~count:100 ~name:"minimize reaches a local minimum"
    Sh.arbitrary (fun p ->
      QCheck.assume (has_loop p);
      let small = Sh.minimize has_loop p in
      has_loop small
      && not (List.exists has_loop (Sh.candidates small)))

(* A short campaign over the real pipeline must be clean: this is the
   in-suite version of the CI `perf_taint fuzz` job. *)
let test_campaign_clean () =
  let report = D.run_campaign ~seed:(Fuzz.Seed.get ()) ~budget:200 () in
  List.iter
    (fun (r : D.oracle_result) ->
      match r.D.or_cx with
      | None -> ()
      | Some cx ->
        Alcotest.failf "oracle %s failed at program %d: %s@.%s" r.D.or_name
          cx.D.cx_index cx.D.cx_message cx.D.cx_text)
    report.D.rp_results

let test_save_and_replay () =
  let p = { G.nparams = 1; helpers = []; main = G.For (G.Bparam 0, G.Work 1) } in
  let prog = G.to_program p in
  let text = Ir.Pp.program_to_string prog in
  let cx =
    { D.cx_oracle = "manual"; cx_message = "not a real failure";
      cx_index = 0; cx_program = prog; cx_text = text;
      cx_lines =
        List.length (String.split_on_char '\n' (String.trim text)) }
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "pt-fuzz-corpus" in
  let path = D.save ~dir ~seed:7 cx in
  Alcotest.(check bool) "corpus file exists" true (Sys.file_exists path);
  let verdicts = D.replay_file path in
  Alcotest.(check int) "all oracles replayed" (List.length O.all)
    (List.length verdicts);
  List.iter
    (fun (name, v) ->
      match v with
      | O.Pass -> ()
      | O.Fail msg -> Alcotest.failf "replay failed %s: %s" name msg)
    verdicts;
  Sys.remove path

(* The engine refactor's equivalence criterion, as a test: a 200-program
   fixed-seed campaign dedicated to the policy-differential oracles finds
   no Taint-vs-Plain divergence and no Coverage inconsistency. *)
let test_policy_differential_campaign () =
  let report =
    D.run_campaign
      ~oracles:[ O.taint_vs_plain; O.coverage_consistency ]
      ~seed:(Fuzz.Seed.get ()) ~budget:200 ()
  in
  List.iter
    (fun (r : D.oracle_result) ->
      (match r.D.or_cx with
      | None -> ()
      | Some cx ->
        Alcotest.failf "policy divergence (%s) at program %d: %s@.%s"
          r.D.or_name cx.D.cx_index cx.D.cx_message cx.D.cx_text);
      Alcotest.(check int)
        (Printf.sprintf "oracle %s checked every program" r.D.or_name)
        200 r.D.or_runs)
    report.D.rp_results

(* The negative control the whole subsystem exists for: disable
   control-flow taint — a genuine soundness bug (DFSan without the
   paper's control-flow extension) — and the soundness oracle must
   produce a counterexample, shrunk below 30 lines of PIR. *)
let test_crippled_taint_is_caught () =
  let report =
    D.run_campaign ~oracles:[ O.taint_soundness ]
      ~config:{ O.interp_config with control_flow_taint = false }
      ~seed:(Fuzz.Seed.get ()) ~budget:500 ()
  in
  match D.counterexamples report with
  | [] ->
    Alcotest.fail
      "disabling control-flow taint was not detected by the soundness oracle"
  | cx :: _ ->
    Alcotest.(check bool)
      (Printf.sprintf "counterexample is small (%d lines)" cx.D.cx_lines)
      true (cx.D.cx_lines <= 30)

let tests =
  [
    Alcotest.test_case "generator covers loops/calls/params" `Quick
      test_generator_coverage;
    Seeded.to_alcotest prop_marked_params_found;
    Seeded.to_alcotest prop_shrink_decreases;
    Seeded.to_alcotest prop_minimize_fixpoint;
    Alcotest.test_case "campaign on the real pipeline is clean" `Quick
      test_campaign_clean;
    Alcotest.test_case "corpus save + replay" `Quick test_save_and_replay;
    Alcotest.test_case "200-case taint-vs-plain campaign finds no divergence"
      `Quick test_policy_differential_campaign;
    Alcotest.test_case "crippled taint analysis is caught and shrunk" `Quick
      test_crippled_taint_is_caught;
  ]
