(** Tests of the compilation tier: the slot-resolved lowering pass
    ([Interp.Lower]) and the compiled engine ([Interp.Compiled]) against
    the tree-walking interpreter as differential oracle — the shape of
    the slot map both tiers share ([Interp.Fstatic.slots]),
    slot-allocation edge cases (shadowed registers, empty blocks,
    recursion), the duplicate-label first-wins rule, lazy
    trap-message identity, mid-block budget cuts, bit-identity on the
    bundled applications and [examples/heat.pir] in the simulated MPI
    world, parallel fuzz campaigns
    of the [compile-identity] oracle at several pool sizes, and the
    "Lowered IR" table of doc/IR.md staying in sync with
    {!Interp.Lower.lowered_ops}. *)

open Ir.Types
module B = Ir.Builder
module M = Interp.Machine
module O = Fuzz.Oracle

let prog funcs entry = { pname = "t"; funcs; entry }

(* Both tiers number registers through [Interp.Fstatic.slots], so a
   fault there would shift both alike and hide from the compile-identity
   oracle; the map's shape is checked directly.  Per function it is a
   bijection from the registers of the kept blocks onto 0 .. n-1, with
   the (distinct) parameters first. *)
let slot_map_ok (f : func) =
  let static = Interp.Fstatic.of_func f in
  let slot_of, names = Interp.Fstatic.slots f static in
  let names = Array.to_list names in
  let regs =
    Array.to_list static.Interp.Fstatic.border
    |> List.concat_map (fun (bi : Interp.Fstatic.binfo) ->
           let b = bi.Interp.Fstatic.blk in
           List.concat_map
             (fun i -> instr_uses i @ Option.to_list (instr_def i))
             b.instrs
           @ term_uses b.term)
  in
  List.sort compare names = List.sort_uniq compare (f.fparams @ regs)
  && Hashtbl.length slot_of = List.length names
  && List.for_all Fun.id
       (List.mapi (fun i r -> Hashtbl.find_opt slot_of r = Some i) names)
  && List.filteri (fun i _ -> i < List.length f.fparams) names = f.fparams

let prop_slot_map =
  QCheck.Test.make ~count:200
    ~name:"shared slot map: bijection, parameters first" Fuzz.Shrink.arbitrary
    (fun g -> List.for_all slot_map_ok (Fuzz.Gen.to_program g).funcs)

let check_identity ?(config = O.interp_config) p =
  List.iter
    (fun f ->
      if not (slot_map_ok f) then Alcotest.failf "slot map of %s" f.fname)
    p.funcs;
  match O.check ~config O.compile_identity p with
  | O.Pass -> ()
  | O.Fail msg -> Alcotest.failf "tier divergence: %s" msg

(* Run one program through both Taint tiers and return what each did:
   either the result value or the trap, plus the step count. *)
let both_tiers ?(config = M.default_config) p args =
  let run_via (type a) (module E : Interp.Engine.S with type t = a) =
    let m = E.create ~config p in
    let outcome =
      match E.run m args with
      | v, _ -> Ok v
      | exception M.Budget_exceeded n -> Error (Printf.sprintf "budget %d" n)
      | exception M.Runtime_error msg -> Error ("runtime error: " ^ msg)
      | exception Ir_error msg -> Error ("invalid IR: " ^ msg)
    in
    (outcome, E.steps_executed m)
  in
  ( run_via (module M),
    run_via (module Interp.Compiled.Taint) )

let check_both ?config ~what p args =
  let i, c = both_tiers ?config p args in
  Alcotest.(check bool)
    (Printf.sprintf "%s: compiled = interpreted (%s)" what
       (match fst i with Ok _ -> "value" | Error e -> e))
    true (i = c);
  i

(* -- duplicate labels: the shared first-wins rule ---------------------------- *)

(* Two blocks named "dup": the first returns 1, the second 2.  Both
   tiers must resolve the jump to the first — the single definition in
   [Interp.Fstatic] — and the lowering must drop the dead duplicate,
   whose register gets no slot. *)
let test_duplicate_label_first_wins () =
  let p =
    prog
      [
        {
          fname = "f";
          fparams = [];
          blocks =
            [
              { label = "entry"; instrs = []; term = Jump "dup" };
              { label = "dup"; instrs = []; term = Return (Int 1) };
              {
                label = "dup";
                instrs = [ Assign ("dead", Int 2) ];
                term = Return (Reg "dead");
              };
            ];
        };
      ]
      "f"
  in
  let i = check_both ~what:"duplicate label" p [] in
  Alcotest.(check bool) "first definition wins" true (fst i = Ok (VInt 1));
  check_identity p

(* Duplicate function names follow the same rule: find_func is
   first-wins, and the compiled function table must agree. *)
let test_duplicate_function_first_wins () =
  let fn ret =
    {
      fname = "g";
      fparams = [];
      blocks = [ { label = "entry"; instrs = []; term = Return (Int ret) } ];
    }
  in
  let main =
    {
      fname = "f";
      fparams = [];
      blocks =
        [
          {
            label = "entry";
            instrs = [ Call (Some "r", "g", []) ];
            term = Return (Reg "r");
          };
        ];
    }
  in
  let p = prog [ main; fn 1; fn 2 ] "f" in
  let i = check_both ~what:"duplicate function" p [] in
  Alcotest.(check bool) "first definition wins" true (fst i = Ok (VInt 1));
  check_identity p

(* -- slot allocation --------------------------------------------------------- *)

(* A parameter reused as a scratch register and a register written in
   several blocks must each map to one slot: parameters first, then
   first-occurrence order. *)
let test_shadowed_registers () =
  let f =
    B.define "f" ~params:[ "n" ] (fun b ->
        B.set b "n" (B.add b (Reg "n") (Int 1));
        B.set b "x" (Int 10);
        B.set b "x" (B.add b (Reg "x") (Reg "n"));
        B.ret b (Reg "x"))
  in
  let p = prog [ f ] "f" in
  let lowered =
    Interp.Lower.func
      ~resolve:(fun _ -> None)
      f
      (Interp.Fstatic.of_func f)
  in
  (* n, x plus one builder temporary per arithmetic op. *)
  Alcotest.(check int) "parameter occupies slot 0" 0
    (match Array.to_list lowered.Interp.Lower.lsnames with
    | "n" :: _ -> 0
    | other -> Alcotest.failf "slot 0 is %s" (String.concat "," other));
  Alcotest.(check int) "each register gets exactly one slot"
    (List.length
       (List.sort_uniq compare (Array.to_list lowered.Interp.Lower.lsnames)))
    lowered.Interp.Lower.lnslots;
  let i = check_both ~what:"shadowed registers" p [ VInt 3 ] in
  Alcotest.(check bool) "value" true (fst i = Ok (VInt 14));
  check_identity p

(* Empty blocks (terminator only) and an empty function body. *)
let test_empty_blocks () =
  let p =
    prog
      [
        {
          fname = "f";
          fparams = [];
          blocks =
            [
              { label = "entry"; instrs = []; term = Jump "a" };
              { label = "a"; instrs = []; term = Jump "b" };
              { label = "b"; instrs = []; term = Return (Int 7) };
            ];
        };
      ]
      "f"
  in
  let i = check_both ~what:"empty blocks" p [] in
  Alcotest.(check bool) "value" true (fst i = Ok (VInt 7));
  Alcotest.(check int) "one step per terminator" 3 (snd i);
  check_identity p;
  (* A call to a block-less function traps identically on both tiers,
     after the call itself was counted. *)
  let hollow = { fname = "hollow"; fparams = []; blocks = [] } in
  let main =
    {
      fname = "f";
      fparams = [];
      blocks =
        [
          {
            label = "entry";
            instrs = [ Call (None, "hollow", []) ];
            term = Return Unit;
          };
        ];
    }
  in
  let p = prog [ main; hollow ] "f" in
  let i = check_both ~what:"empty function" p [] in
  Alcotest.(check bool) "trap text" true
    (fst i = Error "invalid IR: function hollow has no blocks")

(* -- recursion --------------------------------------------------------------- *)

let test_recursive_calls () =
  (* Self-recursion: fib(n). *)
  let fib =
    B.define "fib" ~params:[ "n" ] (fun b ->
        let c = B.gt b (Reg "n") (Int 1) in
        B.terminate b (Branch (c, "rec", "base"));
        B.start_block b "rec";
        let a = B.call b "fib" [ B.sub b (Reg "n") (Int 1) ] in
        let d = B.call b "fib" [ B.sub b (Reg "n") (Int 2) ] in
        B.ret b (B.add b a d);
        B.start_block b "base";
        B.ret b (Reg "n"))
  in
  let p = prog [ fib ] "fib" in
  let i = check_both ~what:"self-recursion" p [ VInt 12 ] in
  Alcotest.(check bool) "fib 12" true (fst i = Ok (VInt 144));
  check_identity p;
  (* Mutual recursion: is_even/is_odd. *)
  let even =
    B.define "even" ~params:[ "n" ] (fun b ->
        let c = B.gt b (Reg "n") (Int 0) in
        B.terminate b (Branch (c, "rec", "base"));
        B.start_block b "rec";
        let r = B.call b "odd" [ B.sub b (Reg "n") (Int 1) ] in
        B.ret b r;
        B.start_block b "base";
        B.ret b (Int 1))
  in
  let odd =
    B.define "odd" ~params:[ "n" ] (fun b ->
        let c = B.gt b (Reg "n") (Int 0) in
        B.terminate b (Branch (c, "rec", "base"));
        B.start_block b "rec";
        let r = B.call b "even" [ B.sub b (Reg "n") (Int 1) ] in
        B.ret b r;
        B.start_block b "base";
        B.ret b (Int 0))
  in
  let p = prog [ even; odd ] "even" in
  let i = check_both ~what:"mutual recursion" p [ VInt 9 ] in
  Alcotest.(check bool) "even 9 = false" true (fst i = Ok (VInt 0));
  check_identity p;
  (* Unbounded recursion trips the shared depth limit, same text. *)
  let forever =
    B.define "f" ~params:[] (fun b ->
        let r = B.call b "f" [] in
        B.ret b r)
  in
  let i = check_both ~what:"call depth" (prog [ forever ] "f") [] in
  Alcotest.(check bool) "depth trap text" true
    (fst i
    = Error "runtime error: call depth exceeds the limit of 10000 frames")

(* -- the budget cutting mid-block -------------------------------------------- *)

let test_budget_cut_mid_block () =
  (* One straight-line block of many instructions: any budget below the
     block length stops inside it, and the exception must carry exactly
     the budget on both tiers. *)
  let f =
    B.define "f" ~params:[] (fun b ->
        B.set b "x" (Int 0);
        for _ = 1 to 50 do
          B.set b "x" (B.add b (Reg "x") (Int 1))
        done;
        B.ret b (Reg "x"))
  in
  let p = prog [ f ] "f" in
  List.iter
    (fun budget ->
      let config = { M.default_config with max_steps = budget } in
      let i = check_both ~config ~what:"mid-block budget" p [] in
      Alcotest.(check bool)
        (Printf.sprintf "Budget_exceeded carries exactly %d" budget)
        true
        (fst i = Error (Printf.sprintf "budget %d" budget));
      check_identity ~config:{ O.interp_config with max_steps = budget } p)
    [ 1; 7; 33 ]

(* -- lazy trap identity ------------------------------------------------------- *)

let test_trap_messages_identical () =
  let cases =
    [
      ( "unknown callee",
        "{ call @nope() } traps only when executed",
        [
          {
            fname = "f";
            fparams = [];
            blocks =
              [
                {
                  label = "entry";
                  instrs = [ Call (None, "nope", []) ];
                  term = Return Unit;
                };
              ];
          };
        ],
        Error "invalid IR: unknown function nope" );
      ( "arity mismatch",
        "wrong argument count",
        [
          {
            fname = "f";
            fparams = [];
            blocks =
              [
                {
                  label = "entry";
                  instrs = [ Call (None, "g", [ Int 1 ]) ];
                  term = Return Unit;
                };
              ];
          };
          {
            fname = "g";
            fparams = [ "a"; "b" ];
            blocks = [ { label = "entry"; instrs = []; term = Return Unit } ];
          };
        ],
        Error "runtime error: arity mismatch calling g: 2 formals, 1 actuals"
      );
      ( "unknown block",
        "dangling jump",
        [
          {
            fname = "f";
            fparams = [];
            blocks = [ { label = "entry"; instrs = []; term = Jump "gone" } ];
          };
        ],
        Error "invalid IR: unknown block gone in f" );
      ( "unknown prim",
        "unregistered primitive",
        [
          {
            fname = "f";
            fparams = [];
            blocks =
              [
                {
                  label = "entry";
                  instrs = [ Prim (Some "x", "frob", []) ];
                  term = Return (Reg "x");
                };
              ];
          };
        ],
        Error "runtime error: unknown primitive !frob" );
      ( "unset register",
        "read before any write",
        [
          {
            fname = "f";
            fparams = [];
            blocks =
              [
                {
                  label = "entry";
                  instrs = [ Assign ("y", Reg "x") ];
                  term = Return (Reg "y");
                };
              ];
          };
        ],
        Error "runtime error: read of unset register %x in f" );
    ]
  in
  List.iter
    (fun (what, _why, funcs, expect) ->
      let i = check_both ~what (prog funcs "f") [] in
      Alcotest.(check bool)
        (Printf.sprintf "%s: exact interpreter text" what)
        true (fst i = expect))
    cases;
  (* A lazy trap on a dead path must NOT fire: the same unknown callee
     behind an untaken branch runs to completion on both tiers. *)
  let p =
    prog
      [
        {
          fname = "f";
          fparams = [];
          blocks =
            [
              { label = "entry"; instrs = []; term = Branch (Bool true, "ok", "bad") };
              { label = "ok"; instrs = []; term = Return (Int 5) };
              {
                label = "bad";
                instrs = [ Call (None, "nope", []) ];
                term = Jump "gone";
              };
            ];
        };
      ]
      "f"
  in
  let i = check_both ~what:"dead trap" p [] in
  Alcotest.(check bool) "dead traps stay dormant" true (fst i = Ok (VInt 5))

(* -- bit-identity on the bundled programs ------------------------------------- *)

(* The oracle runs every engine in the simulated MPI world, so the MPI
   programs execute in full rather than up to an unknown-primitive trap:
   on the oracle's base arguments (3 per parameter) each finishes inside
   its budget after [steps] steps and registers the communicator-size
   source p. *)
let check_mpi_identity ~what ~steps p =
  check_identity p;
  let m = M.create ~config:O.interp_config p in
  Mpi_sim.Runtime.install_host (module M) Mpi_sim.Runtime.default_world m;
  let entry = find_func p p.entry in
  ignore (M.run m (List.map (fun _ -> VInt 3) entry.fparams));
  Alcotest.(check int) (what ^ ": steps") steps (M.steps_executed m);
  Alcotest.(check bool) (what ^ ": registers p") true
    (List.mem "p" (Taint.Label.sources (M.label_table m)))

let test_identity_on_apps () =
  List.iter check_identity
    [
      Apps.Didactic.iterate_example;
      Apps.Didactic.foo_example;
      Apps.Didactic.matrix_init;
      Apps.Didactic.algorithm_selection;
    ];
  check_mpi_identity ~what:"lulesh" ~steps:125_543 Apps.Lulesh.program;
  check_mpi_identity ~what:"milc" ~steps:443_310 Apps.Milc.program;
  check_mpi_identity ~what:"minicg" ~steps:306 Apps.Minicg.program

let test_identity_on_heat_example () =
  let path =
    List.find Sys.file_exists [ "../examples/heat.pir"; "examples/heat.pir" ]
  in
  check_mpi_identity ~what:"heat.pir" ~steps:75 (Ir.Parser.parse_file path)

(* -- parallel campaigns -------------------------------------------------------
   The compile-identity oracle through the fuzz driver at several pool
   sizes: same verdicts, same case counts, no counterexamples. *)

let campaign pool =
  Fuzz.Driver.run_campaign ?pool ~oracles:[ O.compile_identity ] ~seed:1234
    ~budget:60 ()

let test_fuzz_campaign_jobs () =
  let serial = campaign None in
  List.iter
    (fun (r : Fuzz.Driver.oracle_result) ->
      Alcotest.(check int) "all 60 cases checked" 60 r.or_runs;
      Alcotest.(check bool) "no counterexample" true (r.or_cx = None))
    serial.rp_results;
  List.iter
    (fun jobs ->
      Par.Pool.with_pool ~jobs (fun p ->
          let par = campaign (Some p) in
          Alcotest.(check bool)
            (Printf.sprintf "report at --jobs %d identical to serial" jobs)
            true
            (par = serial)))
    [ 2; 7 ]

(* -- documentation drift ------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* [Interp.Lower.lowered_ops] is the single definition of the lowered
   instruction layout; the "Lowered IR" table in doc/IR.md must list
   every row verbatim. *)
let test_lowered_ops_doc_in_sync () =
  let path = List.find Sys.file_exists [ "../doc/IR.md"; "doc/IR.md" ] in
  let doc = read_file path in
  List.iter
    (fun (name, descr) ->
      let row = Printf.sprintf "| `%s` | %s |" name descr in
      Alcotest.(check bool)
        (Printf.sprintf "doc/IR.md lists %s with its meaning" name)
        true (contains doc row))
    Interp.Lower.lowered_ops

(* -- the domain-local lowering cache ------------------------------------------
   PR 7 memoizes lowered functions per domain; the cache's hit/miss
   traffic is now observable.  The counters live outside the engines (a
   domain-local tally, surfaced by the pipeline as a per-analysis delta)
   precisely so the compile-identity oracle's registry comparison stays
   bit-identical across tiers. *)

let test_lower_cache_counters_move () =
  let p =
    prog [ B.define "main" ~params:[ "n" ] (fun b -> B.ret b (Reg "n")) ] "main"
  in
  let run () =
    let m = Interp.Compiled.Taint.create ~config:M.default_config p in
    ignore (Interp.Compiled.Taint.run m [ VInt 3 ])
  in
  let _, m0 = Interp.Compiled.cache_stats () in
  run ();
  let h1, m1 = Interp.Compiled.cache_stats () in
  Alcotest.(check bool) "first engine lowers afresh" true (m1 > m0);
  run ();
  let h2, m2 = Interp.Compiled.cache_stats () in
  Alcotest.(check bool) "second engine hits the cache" true (h2 > h1);
  Alcotest.(check int) "nothing re-lowered" m1 m2

let test_pipeline_surfaces_cache_counters () =
  let counter reg name =
    Option.value ~default:0
      (Obs_metrics.find_counter reg.Perf_taint.Pipeline.snapshot name)
  in
  let analyze () =
    Perf_taint.Pipeline.analyze Apps.Didactic.iterate_example
      ~args:[ VInt 10; VInt 2 ]
  in
  ignore (analyze ());
  let again = analyze () in
  Alcotest.(check bool) "a repeated analysis reports cache hits" true
    (counter again "compile.cache_hit" > 0);
  Alcotest.(check int) "and re-lowers nothing" 0
    (counter again "compile.cache_miss")

let test_cache_counter_doc_in_sync () =
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
    Interp.Compiled.cache_counters

let test_design_doc_mentions_tier () =
  let path = List.find Sys.file_exists [ "../DESIGN.md"; "DESIGN.md" ] in
  let doc = read_file path in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "DESIGN.md mentions %s" needle)
        true (contains doc needle))
    [ "lower.ml"; "compiled.ml"; "compile-identity" ]

(* The depth limit's boundary: a recursion holding exactly
   [Eval.max_call_depth] frames (the entry's included) runs to the same
   result on both tiers, and one frame more is refused on both. *)
let test_call_depth_boundary () =
  let down =
    B.define "down" ~params:[ "n" ] (fun b ->
        let c = B.gt b (Reg "n") (Int 0) in
        B.terminate b (Branch (c, "rec", "base"));
        B.start_block b "rec";
        let r = B.call b "down" [ B.sub b (Reg "n") (Int 1) ] in
        B.ret b (B.add b r (Int 1));
        B.start_block b "base";
        B.ret b (Int 0))
  in
  let p = prog [ down ] "down" in
  let limit = Interp.Eval.max_call_depth in
  let i = check_both ~what:"depth at the limit" p [ VInt (limit - 1) ] in
  Alcotest.(check bool) "runs at the limit" true (fst i = Ok (VInt (limit - 1)));
  let i = check_both ~what:"one frame deeper" p [ VInt limit ] in
  Alcotest.(check bool) "refused one frame deeper" true
    (fst i
    = Error
        (Printf.sprintf "runtime error: call depth exceeds the limit of %d \
                         frames" limit))

let tests =
  [
    Alcotest.test_case "duplicate block labels: first wins on both tiers"
      `Quick test_duplicate_label_first_wins;
    Alcotest.test_case "duplicate function names: first wins on both tiers"
      `Quick test_duplicate_function_first_wins;
    Alcotest.test_case "shadowed registers share one slot" `Quick
      test_shadowed_registers;
    Seeded.to_alcotest prop_slot_map;
    Alcotest.test_case "empty blocks and block-less functions" `Quick
      test_empty_blocks;
    Alcotest.test_case "self- and mutual recursion" `Quick
      test_recursive_calls;
    Alcotest.test_case "budget cuts mid-block with the exact count" `Quick
      test_budget_cut_mid_block;
    Alcotest.test_case "lazy traps carry the interpreter's texts" `Quick
      test_trap_messages_identical;
    Alcotest.test_case "bit-identity on the bundled apps" `Quick
      test_identity_on_apps;
    Alcotest.test_case "bit-identity on examples/heat.pir" `Quick
      test_identity_on_heat_example;
    Alcotest.test_case "compile-identity fuzz at --jobs 1/2/7" `Quick
      test_fuzz_campaign_jobs;
    Alcotest.test_case "lowered-op table in sync with doc/IR.md" `Quick
      test_lowered_ops_doc_in_sync;
    Alcotest.test_case "lowering cache counters move" `Quick
      test_lower_cache_counters_move;
    Alcotest.test_case "pipeline surfaces the cache delta" `Quick
      test_pipeline_surfaces_cache_counters;
    Alcotest.test_case "compile cache counter table in sync with doc" `Quick
      test_cache_counter_doc_in_sync;
    Alcotest.test_case "DESIGN.md names the compilation tier" `Quick
      test_design_doc_mentions_tier;
    Alcotest.test_case "call depth limit boundary on both tiers" `Quick
      test_call_depth_boundary;
  ]
