(** Tests of campaign sharding: the deterministic coordinate partition,
    in-process shard/merge bit-identity (with and without injected
    kills), merge dedup/refusal rules, and the shard.* observability
    vocabulary staying in sync with the docs. *)

module Exp = Measure.Experiment
module Spec = Measure.Spec
module Instr = Measure.Instrument
module Fault = Measure.Fault
module Camp = Measure.Campaign
module Shard = Measure.Shard
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

let plan =
  { Fault.none with
    Fault.fp_seed = 5; fp_crash = 0.2; fp_hang = 0.15; fp_persistent = 0.;
    fp_transient_attempts = 2 }

let retry = { Camp.default_retry with Camp.rt_max_attempts = 3 }
let header = Camp.header_line ~app_name:tiny_app.Spec.aname ~plan ~retry design

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let with_temp_base f =
  let base = Filename.temp_file "shard" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (base :: List.init 8 (Shard.journal_path ~journal:base)))
    (fun () -> f base)

(* -- spec parsing ------------------------------------------------------------- *)

let test_spec_roundtrip () =
  List.iter
    (fun (k, m) ->
      let t = { Shard.sh_index = k; sh_count = m } in
      match Shard.of_spec (Shard.spec_of t) with
      | Ok t' -> Alcotest.(check bool) "spec roundtrip" true (t = t')
      | Error e -> Alcotest.fail e)
    [ (0, 1); (0, 3); (2, 3); (7, 8) ]

let test_spec_rejects_garbage () =
  List.iter
    (fun bad ->
      match Shard.of_spec bad with
      | Ok _ -> Alcotest.fail ("shard spec accepted: " ^ bad)
      | Error e ->
        Alcotest.(check bool) "error names the spec" true (contains e bad))
    [ ""; "3"; "1/"; "/3"; "3/3"; "4/3"; "-1/3"; "0/0"; "a/b"; "1/3/5" ]

(* -- partition ---------------------------------------------------------------- *)

let test_partition_exact () =
  (* Every coordinate lands in exactly one shard, shard subsets preserve
     design order, and their concatenation re-sorted is the design. *)
  let coords = Camp.coordinates design in
  List.iter
    (fun shards ->
      let subsets =
        List.init shards (fun k ->
            Shard.coordinates { Shard.sh_index = k; sh_count = shards } design)
      in
      Alcotest.(check int)
        (Printf.sprintf "%d shards partition the design" shards)
        (List.length coords)
        (List.length (List.concat subsets));
      Alcotest.(check bool) "no coordinate in two shards" true
        (List.sort compare (List.concat subsets) = List.sort compare coords);
      List.iter
        (fun sub ->
          let positions =
            List.map
              (fun c ->
                let rec idx i = function
                  | [] -> Alcotest.fail "coordinate outside the design"
                  | c' :: _ when compare c c' = 0 -> i
                  | _ :: rest -> idx (i + 1) rest
                in
                idx 0 coords)
              sub
          in
          Alcotest.(check bool) "shard subset keeps design order" true
            (List.sort compare positions = positions))
        subsets)
    [ 1; 2; 3; 5 ]

let test_assign_axis_order_independent () =
  List.iter
    (fun (params, rep) ->
      Alcotest.(check int) "axis order does not move the coordinate"
        (Shard.assign ~shards:4 ~params ~rep)
        (Shard.assign ~shards:4 ~params:(List.rev params) ~rep))
    (Camp.coordinates design)

(* -- shard/merge bit-identity ------------------------------------------------- *)

let run_shard ?limit ~resume base k shards =
  let t = { Shard.sh_index = k; sh_count = shards } in
  Camp.run_journaled ~plan ~retry
    ~keep:(fun params rep -> Shard.owns t ~params ~rep)
    ?limit ~journal:(Shard.journal_path ~journal:base k) ~resume tiny_app
    machine design

let tear_trailing_line path =
  let content = read_file path in
  let body = String.sub content 0 (String.length content - 1) in
  let last_nl = String.rindex body '\n' in
  let len = String.length body - last_nl - 1 in
  let oc = open_out_bin path in
  output_string oc (String.sub content 0 (last_nl + 1 + max 1 (len / 2)));
  close_out oc

let merge ?metrics ?events base shards =
  Shard.merge_journals ?metrics ?events ~mode:design.Exp.mode
    ~expected_header:header ~design
    (List.init shards (Shard.journal_path ~journal:base))

let test_shard_merge_identity () =
  let serial = Camp.run ~plan ~retry tiny_app machine design in
  with_temp_base @@ fun base ->
  let shards = 3 in
  for k = 0 to shards - 1 do
    ignore (run_shard ~resume:false base k shards)
  done;
  match merge base shards with
  | Error e -> Alcotest.fail e
  | Ok mg ->
    Alcotest.(check int) "three journals merged" 3 mg.Shard.mg_journals;
    Alcotest.(check int) "no duplicates" 0 mg.Shard.mg_duplicates;
    Alcotest.(check int) "no torn lines" 0 mg.Shard.mg_torn;
    Alcotest.(check int) "nothing missing" 0 (List.length mg.Shard.mg_missing);
    Alcotest.(check bool) "merged records bit-identical to serial" true
      (compare mg.Shard.mg_records serial.Camp.cp_records = 0);
    (* The merged journal is byte-identical to a single-process one. *)
    Camp.write_journal ~header mg.Shard.mg_records base;
    let expected =
      String.concat ""
        (List.map
           (fun l -> l ^ "\n")
           (header :: List.map Camp.record_to_line serial.Camp.cp_records))
    in
    Alcotest.(check bool) "merged journal bytes identical" true
      (String.equal (read_file base) expected)

let test_shard_merge_identity_with_kill () =
  let serial = Camp.run ~plan ~retry tiny_app machine design in
  with_temp_base @@ fun base ->
  let shards = 3 in
  for k = 0 to shards - 1 do
    if k = 1 then begin
      (* Kill shard 1 after two coordinates, torn mid-write, then
         restart it with resume — the coordinator's recovery path. *)
      ignore (run_shard ~limit:2 ~resume:false base k shards);
      tear_trailing_line (Shard.journal_path ~journal:base k);
      ignore (run_shard ~resume:true base k shards)
    end
    else ignore (run_shard ~resume:false base k shards)
  done;
  match merge base shards with
  | Error e -> Alcotest.fail e
  | Ok mg ->
    Alcotest.(check bool) "killed+resumed merge bit-identical to serial" true
      (compare mg.Shard.mg_records serial.Camp.cp_records = 0)

let test_merge_counters_and_events_replay () =
  let base_metrics = Obs_metrics.create () in
  let base_events = Obs_events.create ~ts:false () in
  let serial =
    Camp.run ~metrics:base_metrics ~events:base_events ~plan ~retry tiny_app
      machine design
  in
  ignore serial;
  with_temp_base @@ fun base ->
  let shards = 2 in
  for k = 0 to shards - 1 do
    ignore (run_shard ~resume:false base k shards)
  done;
  let metrics = Obs_metrics.create () in
  let events = Obs_events.create ~ts:false () in
  match merge ~metrics ~events base shards with
  | Error e -> Alcotest.fail e
  | Ok _ ->
    let snap = Obs_metrics.snapshot metrics in
    let base_snap = Obs_metrics.snapshot base_metrics in
    let value s n = Option.value ~default:0 (Obs_metrics.find_counter s n) in
    List.iter
      (fun (name, _) ->
        Alcotest.(check int) ("replayed counter " ^ name)
          (value base_snap name) (value snap name))
      Camp.counters;
    Alcotest.(check int) "shard.merged counts the journals" shards
      (value snap "shard.merged");
    let base_lines = Obs_events.lines base_events in
    let lines = Obs_events.lines events in
    Alcotest.(check int) "one extra shard.merge event"
      (List.length base_lines + 1)
      (List.length lines);
    List.iteri
      (fun i l ->
        Alcotest.(check string)
          (Printf.sprintf "replayed event %d byte-identical" i)
          l
          (List.nth lines i))
      base_lines;
    Alcotest.(check bool) "trailing event is shard.merge" true
      (contains (List.nth lines (List.length base_lines)) "shard.merge")

(* -- merge refusal and dedup rules -------------------------------------------- *)

let test_merge_rejects_mismatched_header () =
  with_temp_base @@ fun base ->
  ignore (run_shard ~resume:false base 0 2);
  ignore (run_shard ~resume:false base 1 2);
  let other =
    Camp.header_line ~app_name:tiny_app.Spec.aname ~plan ~retry
      { design with Exp.seed = design.Exp.seed + 1 }
  in
  match
    Shard.merge_journals ~mode:design.Exp.mode ~expected_header:other ~design
      (List.init 2 (Shard.journal_path ~journal:base))
  with
  | Ok _ -> Alcotest.fail "mismatched shard journal accepted"
  | Error e ->
    Alcotest.(check bool) "one-line refusal" false (contains e "\n")

let test_merge_rejects_alien_coordinates () =
  with_temp_base @@ fun base ->
  ignore (run_shard ~resume:false base 0 1);
  let narrow = { design with Exp.reps = 1 } in
  match
    Shard.merge_journals ~mode:design.Exp.mode
      ~expected_header:header (* journal header matches... *)
      ~design:narrow (* ...but the merge design no longer covers it *)
      [ Shard.journal_path ~journal:base 0 ]
  with
  | Ok _ -> Alcotest.fail "records outside the design accepted"
  | Error e ->
    Alcotest.(check bool) "refusal names the alien coordinates" true
      (contains e "outside the campaign design")

let test_merge_dedup_first_completed_wins () =
  with_temp_base @@ fun base ->
  (* Two overlapping journals: the whole campaign twice.  Every
     coordinate is a duplicate; the retry lottery is deterministic so
     both copies are identical and the merge keeps one of each. *)
  ignore (run_shard ~resume:false base 0 1);
  let p1 = Shard.journal_path ~journal:base 0 in
  let p2 = Shard.journal_path ~journal:base 1 in
  let oc = open_out_bin p2 in
  output_string oc (read_file p1);
  close_out oc;
  match
    Shard.merge_journals ~mode:design.Exp.mode ~expected_header:header ~design
      [ p1; p2 ]
  with
  | Error e -> Alcotest.fail e
  | Ok mg ->
    let n = List.length (Camp.coordinates design) in
    Alcotest.(check int) "every coordinate deduplicated" n
      mg.Shard.mg_duplicates;
    Alcotest.(check int) "one record per coordinate" n
      (List.length mg.Shard.mg_records)

let test_merge_completed_supersedes_abandoned () =
  with_temp_base @@ fun base ->
  ignore (run_shard ~resume:false base 0 1);
  let p1 = Shard.journal_path ~journal:base 0 in
  let records, _ =
    match Camp.load_journal ~mode:design.Exp.mode ~expected_header:header p1 with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  let first = List.hd records in
  let abandoned = { first with Camp.rc_outcome = Camp.Abandoned "crash" } in
  (* Journal A holds the abandonment, journal B the completion — in
     either order the completed record must win. *)
  let p2 = Shard.journal_path ~journal:base 1 in
  List.iter
    (fun order ->
      Camp.write_journal ~header [ List.nth order 0 ] p1;
      Camp.write_journal ~header [ List.nth order 1 ] p2;
      match
        Shard.merge_journals ~mode:design.Exp.mode ~expected_header:header
          ~design [ p1; p2 ]
      with
      | Error e -> Alcotest.fail e
      | Ok mg ->
        Alcotest.(check int) "duplicate counted" 1 mg.Shard.mg_duplicates;
        (match mg.Shard.mg_records with
        | [ r ] ->
          Alcotest.(check bool) "completed record survives" true
            (match r.Camp.rc_outcome with
            | Camp.Completed _ -> true
            | Camp.Abandoned _ -> false)
        | rs ->
          Alcotest.fail
            (Printf.sprintf "expected 1 merged record, got %d"
               (List.length rs))))
    [ [ abandoned; first ]; [ first; abandoned ] ]

let test_merge_tolerates_torn_journal () =
  with_temp_base @@ fun base ->
  ignore (run_shard ~resume:false base 0 2);
  ignore (run_shard ~resume:false base 1 2);
  tear_trailing_line (Shard.journal_path ~journal:base 1);
  match merge base 2 with
  | Error e -> Alcotest.fail e
  | Ok mg ->
    Alcotest.(check int) "torn line counted" 1 mg.Shard.mg_torn;
    Alcotest.(check int) "torn coordinate missing" 1
      (List.length mg.Shard.mg_missing);
    Alcotest.(check int) "everything else merged"
      (List.length (Camp.coordinates design) - 1)
      (List.length mg.Shard.mg_records)

(* -- documentation drift ------------------------------------------------------ *)

let doc_lists what vocabulary () =
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
    Alcotest.test_case "shard spec roundtrip" `Quick test_spec_roundtrip;
    Alcotest.test_case "shard spec rejects garbage" `Quick
      test_spec_rejects_garbage;
    Alcotest.test_case "shards partition the design exactly" `Quick
      test_partition_exact;
    Alcotest.test_case "assignment ignores grid axis order" `Quick
      test_assign_axis_order_independent;
    Alcotest.test_case "shard/merge is bit-identical to serial" `Quick
      test_shard_merge_identity;
    Alcotest.test_case "kill+resume shard merge is bit-identical" `Quick
      test_shard_merge_identity_with_kill;
    Alcotest.test_case "merge replays counters and events" `Quick
      test_merge_counters_and_events_replay;
    Alcotest.test_case "merge rejects a mismatched header" `Quick
      test_merge_rejects_mismatched_header;
    Alcotest.test_case "merge rejects alien coordinates" `Quick
      test_merge_rejects_alien_coordinates;
    Alcotest.test_case "merge dedups restart overlaps" `Quick
      test_merge_dedup_first_completed_wins;
    Alcotest.test_case "completed supersedes abandoned in the merge" `Quick
      test_merge_completed_supersedes_abandoned;
    Alcotest.test_case "merge tolerates a torn shard journal" `Quick
      test_merge_tolerates_torn_journal;
    Alcotest.test_case "shard counter table in sync with doc" `Quick
      (doc_lists "counter" Shard.counters);
    Alcotest.test_case "shard event table in sync with doc" `Quick
      (doc_lists "event" Shard.event_names);
  ]
