(** End-to-end tests of the CLI's failure paths: every anticipated error
    — unknown app, unreadable path, parse error, malformed IR, runtime
    error, exhausted step budget, bad fault spec — must surface as a
    single-line message on stderr and a nonzero exit code, never as an
    uncaught exception with a backtrace. *)

(* Under `dune runtest` the cwd is _build/default/test and the binary is
   a declared dependency at ../bin/; under `dune exec` it is the project
   root. *)
let exe =
  List.find Sys.file_exists
    [ "../bin/perf_taint_cli.exe"; "_build/default/bin/perf_taint_cli.exe" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_cli args =
  let out = Filename.temp_file "cli" ".out" in
  let err = Filename.temp_file "cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove out with Sys_error _ -> ());
      try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:err)
      in
      (code, read_file out, read_file err))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let line_count s =
  List.length
    (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s))

(* The contract under test: nonzero exit, exactly one stderr line
   mentioning [expect], and no escaped exception. *)
let check_failure ?(lines = 1) ~expect args =
  let code, _out, errs = run_cli args in
  Alcotest.(check bool)
    (Printf.sprintf "nonzero exit for %s" (String.concat " " args))
    true (code <> 0);
  Alcotest.(check int)
    (Printf.sprintf "single-line stderr, got %S" errs)
    lines (line_count errs);
  Alcotest.(check bool)
    (Printf.sprintf "stderr %S mentions %S" errs expect)
    true
    (contains errs expect);
  List.iter
    (fun leak ->
      Alcotest.(check bool)
        (Printf.sprintf "no %S in stderr" leak)
        false (contains errs leak))
    [ "Raised at"; "Raised by"; "Fatal error: exception" ]

let with_fixture contents f =
  let path = Filename.temp_file "cli_fixture" ".pir" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_success_baseline () =
  let code, out, _ = run_cli [ "print"; "iterate" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "prints the program" true (contains out "func @")

let test_unknown_app () =
  check_failure ~expect:"unknown app" [ "analyze"; "nosuchapp" ]

let test_directory_path () =
  (* [Sys.file_exists] accepts a directory; it must be diagnosed, not
     opened. *)
  check_failure ~expect:"is a directory" [ "analyze"; "." ]

let test_unreadable_file () =
  (* A path that vanishes between the existence check and the open still
     surfaces as a clean Sys_error line. *)
  with_fixture "func @main() {\nentry:\n  ret ()\n}\n" @@ fun path ->
  Sys.remove path;
  check_failure ~expect:"unknown app" [ "analyze"; path ]

let test_parse_error () =
  with_fixture "; program broken (entry @main)\nfunc @main( {\n"
  @@ fun path ->
  check_failure ~expect:"parse error at line" [ "analyze"; path ]

let test_unknown_opcode () =
  with_fixture
    "func @main(n) {\nentry:\n  %x = frobnicate %n\n  ret %x\n}\n"
  @@ fun path -> check_failure ~expect:"parse error" [ "analyze"; path ]

let test_ir_error () =
  (* Parses fine; calling an undefined function is an IR-level error
     raised during the tainted run. *)
  with_fixture "func @main(n) {\nentry:\n  call @nope()\n  ret ()\n}\n"
  @@ fun path -> check_failure ~expect:"nope" [ "analyze"; path ]

let test_runtime_error () =
  with_fixture "func @main(n) {\nentry:\n  %z = div %n, 0\n  ret %z\n}\n"
  @@ fun path ->
  check_failure ~expect:"division by zero" [ "analyze"; path ]

let test_budget_exceeded () =
  check_failure ~expect:"--max-steps"
    [ "analyze"; "lulesh"; "--max-steps"; "10" ]

let test_bad_fault_spec () =
  check_failure ~expect:"frobnicate"
    [ "campaign"; "lulesh"; "--faults"; "frobnicate=1" ]

let test_campaign_needs_spec () =
  check_failure ~expect:"measurement spec" [ "campaign"; "iterate" ]

(* Each app models over its own campaign grid and fit parameters. *)
let test_model_minicg () =
  let code, out, errs = run_cli [ "model"; "minicg" ] in
  Alcotest.(check int) (Printf.sprintf "exit 0, stderr %S" errs) 0 code;
  Alcotest.(check bool) "spmv fitted" true (contains out "spmv")

let test_resume_needs_journal () =
  check_failure ~expect:"--journal" [ "campaign"; "lulesh"; "--resume" ]

(* -- resume from a damaged or foreign journal --------------------------------
   The two refusal paths a real recovery hits: a journal from a
   different campaign (wrong identity header) and a journal corrupted
   mid-file.  Both must be one clean stderr line, not a backtrace. *)

let with_temp_journal f =
  let path = Filename.temp_file "cli_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let seed_journal ~seed journal =
  let code, _, errs =
    run_cli
      [ "campaign"; "minicg"; "--reps"; "1"; "--max-runs"; "2"; "--journal";
        journal; "--seed"; string_of_int seed ]
  in
  Alcotest.(check int) (Printf.sprintf "seeding run ok: %s" errs) 0 code

let test_resume_rejects_foreign_journal () =
  with_temp_journal @@ fun journal ->
  seed_journal ~seed:42 journal;
  check_failure ~expect:"journal header does not match this campaign"
    [ "campaign"; "minicg"; "--reps"; "1"; "--journal"; journal; "--resume";
      "--seed"; "43" ]

let test_resume_rejects_corrupt_journal () =
  with_temp_journal @@ fun journal ->
  seed_journal ~seed:42 journal;
  (* Damage a record line that is not the trailing one: corruption, not
     a torn flush, so the resume must refuse. *)
  let lines = String.split_on_char '\n' (read_file journal) in
  let oc = open_out_bin journal in
  List.iteri
    (fun i l ->
      if l <> "" then begin
        output_string oc (if i = 1 then "{\"params\":" else l);
        output_char oc '\n'
      end)
    lines;
  close_out oc;
  check_failure ~expect:"bad journal line"
    [ "campaign"; "minicg"; "--reps"; "1"; "--journal"; journal; "--resume";
      "--seed"; "42" ]

(* -- sharding flag validation ------------------------------------------------- *)

let test_shard_flag_validation () =
  check_failure ~expect:"--journal"
    [ "campaign"; "minicg"; "--shards"; "2" ];
  check_failure ~expect:"bad shard spec"
    [ "campaign"; "minicg"; "--shard"; "3"; "--journal"; "/tmp/x.jsonl" ];
  check_failure ~expect:"mutually exclusive"
    [ "campaign"; "minicg"; "--shards"; "2"; "--shard"; "0/2"; "--journal";
      "/tmp/x.jsonl" ];
  check_failure ~expect:"--kill-shard requires --shards"
    [ "campaign"; "minicg"; "--kill-shard"; "0=1" ];
  check_failure ~expect:"--max-runs"
    [ "campaign"; "minicg"; "--shards"; "2"; "--max-runs"; "3"; "--journal";
      "/tmp/x.jsonl" ];
  check_failure ~expect:"--resume cannot be combined with --shards"
    [ "campaign"; "minicg"; "--shards"; "2"; "--resume"; "--journal";
      "/tmp/x.jsonl" ]

(* -- the executor's traps -----------------------------------------------------
   Programs run on the compiled tier only.  Its lowering pass resolves
   names at compile time but its traps are lazy and carry the
   interpreter's exact exception (the compile-identity oracle and
   suite_compile compare the two tiers directly), so each fixture either
   runs to a result or fails with exactly one stderr line naming the
   problem. *)

let test_engine_unknown_function_identical () =
  with_fixture "func @main(n) {\nentry:\n  call @nope()\n  ret ()\n}\n"
  @@ fun path ->
  check_failure ~expect:"unknown function nope" [ "run"; path ]

let test_engine_unknown_block_identical () =
  (* `run` skips the static validator, so the unknown label surfaces as
     the engine's own trap — precomputed by the lowering pass, raised
     only when the jump executes. *)
  with_fixture "func @main(n) {\nentry:\n  jump missing\n}\n" @@ fun path ->
  check_failure ~expect:"unknown block missing in main" [ "run"; path ]

let test_engine_unknown_prim_identical () =
  with_fixture "func @main(n) {\nentry:\n  %x = prim !frob()\n  ret %x\n}\n"
  @@ fun path ->
  check_failure ~expect:"unknown primitive !frob" [ "run"; path ]

let test_engine_runtime_and_budget_identical () =
  with_fixture "func @main(n) {\nentry:\n  %z = div %n, 0\n  ret %z\n}\n"
    (fun path ->
      check_failure ~expect:"division by zero" [ "run"; path ]);
  check_failure ~expect:"--max-steps"
    [ "run"; "lulesh"; "--max-steps"; "10" ]

(* One taint source more than a label has bits: the 63rd source is
   refused by name. *)
let test_engine_source_limit_identical () =
  let sources =
    List.init 63 (fun i ->
        Printf.sprintf "  %%x%d = prim !taint:src%d(%%n)\n" i i)
  in
  with_fixture
    ("func @main(n) {\nentry:\n" ^ String.concat "" sources ^ "  ret %n\n}\n")
  @@ fun path -> check_failure ~expect:"src62" [ "analyze"; path ]

let test_engine_success_identical () =
  List.iter
    (fun app ->
      let code, out, errs = run_cli [ "run"; app ] in
      Alcotest.(check int) (Printf.sprintf "run %s: %s" app errs) 0 code;
      Alcotest.(check bool) "prints the result" true (contains out "result:"))
    [ "iterate"; "matrix"; "foo" ]

(* Every oracle replays the example program, which calls MPI routines:
   the oracles' engines run in the simulated MPI world. *)
let test_fuzz_heat_example () =
  let path =
    List.find Sys.file_exists [ "../examples/heat.pir"; "examples/heat.pir" ]
  in
  let code, out, errs = run_cli [ "fuzz"; path ] in
  Alcotest.(check int) (Printf.sprintf "exit 0: %s%s" out errs) 0 code

(* An unwritable --trace path is one error line and a nonzero exit; no
   subcommand goes on to report a write it did not make. *)
let test_trace_unwritable () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "no-such-trace-dir/t.json"
  in
  List.iter
    (fun args ->
      check_failure ~expect:"cannot write trace" (args @ [ "--trace"; path ]))
    [
      [ "analyze"; "iterate" ];
      [ "run"; "iterate" ];
      [ "campaign"; "minicg"; "--reps"; "1" ];
    ]

let test_duplicate_parameter () =
  with_fixture
    "func @g(a, a) {\nentry:\n  ret %a\n}\nfunc @main(n) {\nentry:\n  \
     %r = call @g(1, 2)\n  ret %r\n}\n"
  @@ fun path ->
  List.iter
    (fun cmd ->
      check_failure ~expect:"line 1: duplicate parameter a of @g" [ cmd; path ])
    [ "run"; "analyze" ]

(* An allocation above the cell limit is refused before anything is
   allocated, with one line naming the size and the limit, up to
   [max_int] (which [Array.make] itself would refuse with a bare
   "Array.make"). *)
let test_alloc_limit () =
  List.iter
    (fun size ->
      with_fixture
        (Printf.sprintf
           "func @main(n) {\nentry:\n  %%a = alloc %s\n  ret %%a\n}\n" size)
      @@ fun path ->
      List.iter
        (fun cmd ->
          check_failure
            ~expect:
              (Printf.sprintf
                 "runtime error: allocation of %s cells exceeds the limit of \
                  %d cells"
                 size Interp.Eval.max_alloc_cells)
            [ cmd; path ])
        [ "run"; "analyze" ])
    [ "100000000000"; string_of_int max_int ]

(* Options a subcommand would accept and ignore do not exist: cmdliner
   refuses them by name (its error line plus two usage hint lines). *)
let test_inert_flags_refused () =
  List.iter
    (fun (cmd, app, flag, value) ->
      check_failure ~lines:3
        ~expect:(Printf.sprintf "unknown option '%s'" flag)
        [ cmd; app; flag; value ])
    [
      ("campaign", "minicg", "--set", "n=5");
      ("campaign", "minicg", "--ranks", "4");
      ("print", "iterate", "--set", "size=5");
      ("print", "iterate", "--ranks", "4");
      ("validate", "iterate", "--ranks", "4");
      ("profile", "iterate", "--jobs", "2");
      ("campaign", "minicg", "--max-steps", "10");
    ]

(* The block-coverage run records its trace like every other run. *)
let test_blocks_trace () =
  let path = Filename.temp_file "cli_blocks" ".json" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let code, out, errs =
    run_cli [ "coverage"; "iterate"; "--blocks"; "--trace"; path ]
  in
  Alcotest.(check int) (Printf.sprintf "exit 0: %s" errs) 0 code;
  Alcotest.(check bool) "block report" true (contains out "block coverage:");
  Alcotest.(check bool) "trace file written" true (Sys.file_exists path);
  match Obs_json.parse (read_file path) with
  | Error msg -> Alcotest.fail ("trace does not parse: " ^ msg)
  | Ok j ->
    let events =
      Option.bind (Obs_json.member "traceEvents" j)
        Obs_json.to_list
    in
    Alcotest.(check bool) "trace holds events" true
      (match events with Some (_ :: _) -> true | _ -> false)

(* -- serve daemon failure modes ----------------------------------------------
   The daemon's contract under abuse: a missing catalog directory is a
   clean one-line refusal naming the path; binding a socket that already
   has a live daemon behind it is refused; and a malformed request line
   gets a one-line JSON error while the connection (and the daemon)
   survive to answer the next request. *)

let with_tmp_catalog f =
  let dir = Filename.temp_file "cli_catalog" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let with_daemon ~catalog ~socket f =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let errfile = Filename.temp_file "cli_daemon" ".err" in
  let errfd =
    Unix.openfile errfile [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--catalog"; catalog; "--socket"; socket |]
      devnull devnull errfd
  in
  Unix.close devnull;
  Unix.close errfd;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Sys.remove errfile with Sys_error _ -> ())
    (fun () -> f pid)

let query socket requests = run_cli ([ "query"; "--socket"; socket ] @ requests)

let test_serve_unknown_catalog_dir () =
  let missing =
    Filename.concat (Filename.get_temp_dir_name ()) "no-such-catalog-dir"
  in
  let code, _out, errs =
    run_cli [ "serve"; "--catalog"; missing; "--socket"; "/tmp/unused.sock" ]
  in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  Alcotest.(check bool)
    (Printf.sprintf "stderr %S names the missing directory" errs)
    true (contains errs missing);
  Alcotest.(check bool) "no backtrace" false (contains errs "Raised at")

let test_serve_daemon_contracts () =
  with_tmp_catalog @@ fun catalog ->
  let socket = Filename.temp_file "cli_serve" ".sock" in
  Sys.remove socket;
  with_daemon ~catalog ~socket @@ fun _pid ->
  (* wait for the daemon: stats answers once it is listening *)
  let code, out, errs = query socket [ {|{"op":"stats"}|} ] in
  Alcotest.(check int) (Printf.sprintf "daemon up: %s" errs) 0 code;
  Alcotest.(check bool) "stats answered" true (contains out {|"ok":true|});
  (* a second daemon on the same live socket must refuse by name *)
  check_failure ~expect:socket
    [ "serve"; "--catalog"; catalog; "--socket"; socket ];
  (* a malformed request gets a one-line JSON error and the connection
     survives it: the stats on the same connection still answers *)
  let code, out, errs = query socket [ "{\"op\":"; {|{"op":"stats"}|} ] in
  Alcotest.(check int) (Printf.sprintf "query ok: %s" errs) 0 code;
  (match
     List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)
   with
  | [ bad; good ] ->
    Alcotest.(check bool)
      (Printf.sprintf "malformed line answered with a JSON error: %s" bad)
      true
      (contains bad {|"ok":false|} && contains bad {|"error"|});
    Alcotest.(check bool) "connection survived to the next request" true
      (contains good {|"ok":true|})
  | ls ->
    Alcotest.fail
      (Printf.sprintf "expected 2 responses, got %d: %s" (List.length ls) out));
  (* clean shutdown: the daemon acknowledges and exits *)
  let code, out, _ = query socket [ {|{"op":"shutdown"}|} ] in
  Alcotest.(check int) "shutdown request ok" 0 code;
  Alcotest.(check bool) "shutdown acknowledged" true
    (contains out {|"ok":true|})

(* A design that measures nothing, or draws noise from a negative or
   non-finite sigma, is refused by field name before anything runs. *)
let test_bad_design () =
  check_failure ~expect:"reps must be >= 1 (got 0)"
    [ "campaign"; "minicg"; "--reps"; "0" ];
  check_failure ~expect:"reps must be >= 1 (got -2)"
    [ "campaign"; "minicg"; "--reps=-2" ];
  check_failure ~expect:"sigma must be finite and >= 0 (got nan)"
    [ "campaign"; "minicg"; "--sigma"; "nan" ];
  check_failure ~expect:"reps"
    [ "campaign"; "minicg"; "--reps"; "0"; "--shards"; "2"; "--journal";
      Filename.concat (Filename.get_temp_dir_name ()) "no-such-campaign" ];
  let journal = Filename.temp_file "bad_retry" ".journal" in
  Sys.remove journal;
  check_failure ~expect:"rt_max_attempts must be >= 1"
    [ "campaign"; "minicg"; "--retries"; "0"; "--journal"; journal ];
  Alcotest.(check bool) "refused campaign writes no journal" false
    (Sys.file_exists journal)

(* [model] accepts a function the program defines or an MPI routine it
   calls, [volume] only a defined one; anything else is one error line. *)
let test_unknown_func () =
  check_failure ~expect:"--func nosuch: lulesh neither defines nor calls it"
    [ "model"; "lulesh"; "--func"; "nosuch" ];
  check_failure ~expect:"--func nosuch: lulesh defines no such function"
    [ "volume"; "lulesh"; "--func"; "nosuch" ];
  check_failure ~expect:"--func mpi_allreduce"
    [ "volume"; "lulesh"; "--func"; "mpi_allreduce" ];
  List.iter
    (fun args ->
      let code, out, _ = run_cli args in
      Alcotest.(check int) (String.concat " " args ^ " exits 0") 0 code;
      Alcotest.(check bool) (out ^ " prints the function") true
        (contains out (List.nth args 3)))
    [ [ "model"; "lulesh"; "--func"; "mpi_allreduce" ];
      [ "volume"; "lulesh"; "--func"; "calc_kinematics_for_elems" ] ]

let tests =
  [
    Alcotest.test_case "success baseline exits 0" `Quick test_success_baseline;
    Alcotest.test_case "tier-identical unknown-function error" `Quick
      test_engine_unknown_function_identical;
    Alcotest.test_case "tier-identical unknown-block error" `Quick
      test_engine_unknown_block_identical;
    Alcotest.test_case "tier-identical unknown-prim error" `Quick
      test_engine_unknown_prim_identical;
    Alcotest.test_case "tier-identical runtime/budget errors" `Quick
      test_engine_runtime_and_budget_identical;
    Alcotest.test_case "tier-identical taint-source limit" `Quick
      test_engine_source_limit_identical;
    Alcotest.test_case "tier-identical run output" `Quick
      test_engine_success_identical;
    Alcotest.test_case "fuzz examples/heat.pir exits 0" `Quick
      test_fuzz_heat_example;
    Alcotest.test_case "unwritable --trace path fails cleanly" `Quick
      test_trace_unwritable;
    Alcotest.test_case "unknown app" `Quick test_unknown_app;
    Alcotest.test_case "directory as program path" `Quick test_directory_path;
    Alcotest.test_case "vanished program path" `Quick test_unreadable_file;
    Alcotest.test_case "truncated program" `Quick test_parse_error;
    Alcotest.test_case "unknown opcode" `Quick test_unknown_opcode;
    Alcotest.test_case "undefined callee" `Quick test_ir_error;
    Alcotest.test_case "runtime error" `Quick test_runtime_error;
    Alcotest.test_case "step budget exceeded" `Quick test_budget_exceeded;
    Alcotest.test_case "malformed fault spec" `Quick test_bad_fault_spec;
    Alcotest.test_case "campaign rejects spec-less apps" `Quick
      test_campaign_needs_spec;
    Alcotest.test_case "model minicg" `Quick test_model_minicg;
    Alcotest.test_case "--resume requires --journal" `Quick
      test_resume_needs_journal;
    Alcotest.test_case "resume rejects a foreign journal" `Quick
      test_resume_rejects_foreign_journal;
    Alcotest.test_case "resume rejects a corrupt journal" `Quick
      test_resume_rejects_corrupt_journal;
    Alcotest.test_case "shard flags validated" `Quick
      test_shard_flag_validation;
    Alcotest.test_case "serve refuses a missing catalog dir" `Quick
      test_serve_unknown_catalog_dir;
    Alcotest.test_case "serve daemon survives abuse" `Quick
      test_serve_daemon_contracts;
    Alcotest.test_case "duplicate parameters refused" `Quick
      test_duplicate_parameter;
    Alcotest.test_case "inert flags refused" `Quick test_inert_flags_refused;
    Alcotest.test_case "coverage --blocks writes its trace" `Quick
      test_blocks_trace;
    Alcotest.test_case "alloc above the cell limit refused" `Quick
      test_alloc_limit;
    Alcotest.test_case "campaign design refused by name" `Quick
      test_bad_design;
    Alcotest.test_case "--func must name a function" `Quick test_unknown_func;
  ]
