(** Tests of the interpreter: scalar evaluation, memory, primitives,
    events, loop/branch observation, control-taint scoping, and runtime
    error handling. *)

open Ir.Types
module B = Ir.Builder
module M = Interp.Machine
module Obs = Interp.Observations

let prog funcs entry = { pname = "t"; funcs; entry }

let run_fn ?config f args =
  let m = M.create ?config (prog [ f ] f.fname) in
  let r = M.run m args in
  (m, r)

(* -- scalar evaluation ------------------------------------------------------ *)

let test_arith () =
  let f =
    B.define "f" ~params:[ "x"; "y" ] (fun b ->
        let s = B.add b (Reg "x") (Reg "y") in
        let d = B.mul b s (Int 3) in
        let m = B.rem b d (Int 7) in
        B.ret b m)
  in
  let _, (v, _) = run_fn f [ VInt 4; VInt 5 ] in
  Alcotest.(check bool) "(4+5)*3 mod 7 = 6" true (v = VInt 6)

let test_float_arith () =
  let f =
    B.define "f" ~params:[] (fun b ->
        let x = B.fadd b (Float 1.5) (Float 2.5) in
        let y = B.fmul b x (Float 2.) in
        B.ret b y)
  in
  let _, (v, _) = run_fn f [] in
  Alcotest.(check bool) "(1.5+2.5)*2 = 8" true (v = VFloat 8.)

let test_comparisons_and_bools () =
  let f =
    B.define "f" ~params:[ "x" ] (fun b ->
        let a = B.lt b (Reg "x") (Int 10) in
        let c = B.ge b (Reg "x") (Int 0) in
        B.ret b (B.and_ b a c))
  in
  let _, (v, _) = run_fn f [ VInt 5 ] in
  Alcotest.(check bool) "0 <= 5 < 10" true (v = VBool true)

let test_min_max_unops () =
  let f =
    B.define "f" ~params:[] (fun b ->
        let a = B.imin b (Int 3) (Int 8) in
        let x = B.imax b a (Int 5) in
        let fl = B.unop b FloatOfInt x in
        let back = B.unop b IntOfFloat fl in
        B.ret b back)
  in
  let _, (v, _) = run_fn f [] in
  Alcotest.(check bool) "max(min(3,8),5) = 5" true (v = VInt 5)

let test_division_by_zero () =
  let f =
    B.define "f" ~params:[] (fun b -> B.ret b (B.div b (Int 1) (Int 0)))
  in
  (try
     ignore (run_fn f []);
     Alcotest.fail "expected runtime error"
   with M.Runtime_error _ -> ())

let test_kind_mismatch () =
  let f =
    B.define "f" ~params:[] (fun b -> B.ret b (B.add b (Int 1) (Float 2.)))
  in
  try
    ignore (run_fn f []);
    Alcotest.fail "expected runtime error"
  with M.Runtime_error _ -> ()

(* -- memory ------------------------------------------------------------------ *)

let test_array_roundtrip () =
  let f =
    B.define "f" ~params:[] (fun b ->
        let a = B.alloc b (Int 4) in
        B.store b a (Int 2) (Int 42);
        B.ret b (B.load b a (Int 2)))
  in
  let _, (v, _) = run_fn f [] in
  Alcotest.(check bool) "load returns stored value" true (v = VInt 42)

let test_out_of_bounds () =
  let f =
    B.define "f" ~params:[] (fun b ->
        let a = B.alloc b (Int 4) in
        B.ret b (B.load b a (Int 9)))
  in
  try
    ignore (run_fn f []);
    Alcotest.fail "expected out-of-bounds error"
  with M.Runtime_error _ -> ()

let test_arrays_are_zero_initialised () =
  let f =
    B.define "f" ~params:[] (fun b ->
        let a = B.alloc b (Int 3) in
        B.ret b (B.load b a (Int 1)))
  in
  let _, (v, _) = run_fn f [] in
  Alcotest.(check bool) "fresh cell is 0" true (v = VInt 0)

(* -- taint propagation -------------------------------------------------------- *)

let names m l = Taint.Label.names (M.label_table m) l

let test_dataflow_through_memory () =
  let f =
    B.define "f" ~params:[ "x" ] (fun b ->
        let x = B.prim b "taint:x" [ Reg "x" ] in
        let a = B.alloc b (Int 2) in
        B.store b a (Int 0) x;
        B.ret b (B.load b a (Int 0)))
  in
  let m, (_, l) = run_fn f [ VInt 7 ] in
  Alcotest.(check (list string)) "label flows through store/load" [ "x" ]
    (names m l)

let test_taint_array_source () =
  let f =
    B.define "f" ~params:[] (fun b ->
        let a = B.alloc b (Int 3) in
        let a = B.prim b "taint:buf" [ a ] in
        B.ret b (B.load b a (Int 1)))
  in
  let m, (_, l) = run_fn f [] in
  Alcotest.(check (list string)) "whole buffer tainted" [ "buf" ] (names m l)

let test_control_taint_scoped_to_join () =
  (* After the join of a tainted branch, writes are clean again. *)
  let f =
    B.define "f" ~params:[ "c" ] (fun b ->
        let c = B.prim b "taint:c" [ Reg "c" ] in
        let cond = B.gt b c (Int 0) in
        B.if_ b cond ~then_:(fun () -> B.set b "inside" (Int 1))
          ~else_:(fun () -> B.set b "inside" (Int 2))
          ();
        (* This write happens after the join: no control dependence. *)
        B.set b "after" (Int 3);
        B.ret b (Reg "after"))
  in
  let m, (_, l) = run_fn f [ VInt 1 ] in
  Alcotest.(check (list string)) "post-join write is clean" [] (names m l)

let test_control_taint_inside_branch () =
  let f =
    B.define "f" ~params:[ "c" ] (fun b ->
        let c = B.prim b "taint:c" [ Reg "c" ] in
        let cond = B.gt b c (Int 0) in
        B.if_ b cond ~then_:(fun () -> B.set b "v" (Int 1))
          ~else_:(fun () -> B.set b "v" (Int 2))
          ();
        B.ret b (Reg "v"))
  in
  let m, (_, l) = run_fn f [ VInt 1 ] in
  Alcotest.(check (list string)) "in-branch write is control tainted" [ "c" ]
    (names m l)

let test_return_under_tainted_loop () =
  (* The LULESH pattern: a value accumulated under a tainted loop carries
     the loop bound's label through control flow. *)
  let f =
    B.define "f" ~params:[ "n" ] (fun b ->
        let n = B.prim b "taint:n" [ Reg "n" ] in
        B.set b "acc" (Int 0);
        B.for_ b "i" ~from:(Int 0) ~below:n (fun _ ->
            B.set b "acc" (B.add b (Reg "acc") (Int 1)));
        B.ret b (Reg "acc"))
  in
  let m, (v, l) = run_fn f [ VInt 5 ] in
  Alcotest.(check bool) "acc = 5" true (v = VInt 5);
  Alcotest.(check (list string)) "acc carries n (control flow)" [ "n" ]
    (names m l)

(* -- observations --------------------------------------------------------------- *)

let test_nested_loop_iterations () =
  let f =
    B.define "f" ~params:[ "n" ] (fun b ->
        B.for_ b "i" ~from:(Int 0) ~below:(Reg "n") (fun _ ->
            B.for_ b "j" ~from:(Int 0) ~below:(Int 4) (fun _ ->
                B.work b (Int 1)));
        B.ret_unit b)
  in
  let m, _ = run_fn f [ VInt 3 ] in
  let loops = Obs.loop_list (M.observations m) in
  let by_depth d =
    List.find (fun lo -> lo.Obs.lo_depth = d) loops
  in
  Alcotest.(check int) "outer iterations" 3 (by_depth 1).Obs.lo_iters;
  Alcotest.(check int) "outer entries" 1 (by_depth 1).Obs.lo_entries;
  Alcotest.(check int) "inner iterations total" 12 (by_depth 2).Obs.lo_iters;
  Alcotest.(check int) "inner entries" 3 (by_depth 2).Obs.lo_entries

let test_zero_iteration_loop () =
  let f =
    B.define "f" ~params:[] (fun b ->
        B.for_ b "i" ~from:(Int 0) ~below:(Int 0) (fun _ -> B.work b (Int 1));
        B.ret_unit b)
  in
  let m, _ = run_fn f [] in
  match Obs.loop_list (M.observations m) with
  | [ lo ] ->
    Alcotest.(check int) "0 iterations" 0 lo.Obs.lo_iters;
    Alcotest.(check int) "1 entry" 1 lo.Obs.lo_entries
  | l -> Alcotest.failf "expected one loop, got %d" (List.length l)

let test_branch_observation () =
  let f =
    B.define "f" ~params:[ "x" ] (fun b ->
        let x = B.prim b "taint:x" [ Reg "x" ] in
        B.for_ b "i" ~from:(Int 0) ~below:(Int 4) (fun i ->
            let c = B.lt b i x in
            B.if_ b c ~then_:(fun () -> B.work b (Int 1)) ());
        B.ret_unit b)
  in
  let m, _ = run_fn f [ VInt 2 ] in
  let branches = Obs.branch_list (M.observations m) in
  (* Find the if-branch (its dep mentions x). *)
  let bo =
    List.find
      (fun bo -> List.mem "x" (Taint.Label.names (M.label_table m) bo.Obs.br_dep))
      branches
  in
  Alcotest.(check int) "taken twice" 2 bo.Obs.br_taken;
  Alcotest.(check int) "not taken twice" 2 bo.Obs.br_not_taken

let test_events_recorded () =
  let f =
    B.define "f" ~params:[] (fun b ->
        B.prim_unit b "mpi_barrier" [];
        B.prim_unit b "mpi_barrier" [];
        B.ret_unit b)
  in
  let m = M.create (prog [ f ] "f") in
  Mpi_sim.Runtime.install_host (module M) Mpi_sim.Runtime.default_world m;
  let _ = M.run m [] in
  let events = Obs.event_list (M.observations m) in
  Alcotest.(check int) "two barrier events" 2
    (List.length (List.filter (fun e -> e.Obs.ev_prim = "mpi_barrier") events))

let test_call_counts_and_work () =
  let callee =
    B.define "g" ~params:[] (fun b ->
        B.work b (Int 5);
        B.ret_unit b)
  in
  let f =
    B.define "f" ~params:[] (fun b ->
        B.repeat b (Int 3) (fun () -> B.call_unit b "g" []);
        B.ret_unit b)
  in
  let m = M.create (prog [ f; callee ] "f") in
  let _ = M.run m [] in
  let fo = Obs.func_obs (M.observations m) "g" in
  Alcotest.(check int) "g called 3 times" 3 fo.Obs.fo_calls;
  Alcotest.(check int) "g work 15" 15 fo.Obs.fo_work

let test_step_budget () =
  let f =
    B.define "f" ~params:[] (fun b ->
        B.while_ b ~cond:(fun () -> Bool true) ~body:(fun () -> B.work b (Int 1));
        B.ret_unit b)
  in
  let config = { M.default_config with max_steps = 1000 } in
  (try
     ignore (run_fn ~config f []);
     Alcotest.fail "expected budget exhaustion"
   with M.Budget_exceeded n -> Alcotest.(check int) "budget in exception" 1000 n);
  (* Budget exhaustion is not a runtime error: the two must stay distinct
     so the fuzzing oracles can tell a long run from a broken program. *)
  try
    ignore (run_fn ~config f []);
    Alcotest.fail "expected budget exhaustion"
  with
  | M.Runtime_error _ -> Alcotest.fail "Budget_exceeded leaked as Runtime_error"
  | M.Budget_exceeded _ -> ()

let test_mpi_comm_size_taint () =
  let f =
    B.define "f" ~params:[] (fun b ->
        let p = B.prim b "mpi_comm_size" [] in
        B.ret b p)
  in
  let m = M.create (prog [ f ] "f") in
  Mpi_sim.Runtime.install_host (module M)
    { Mpi_sim.Runtime.ranks = 16; rank = 0 } m;
  let v, l = M.run m [] in
  Alcotest.(check bool) "size is 16" true (v = VInt 16);
  Alcotest.(check (list string)) "implicit p label" [ "p" ]
    (Taint.Label.names (M.label_table m) l)

let test_unknown_prim () =
  let f =
    B.define "f" ~params:[] (fun b ->
        B.prim_unit b "no_such_prim" [];
        B.ret_unit b)
  in
  try
    ignore (run_fn f []);
    Alcotest.fail "expected unknown primitive error"
  with M.Runtime_error _ -> ()

let test_arity_mismatch () =
  let g = B.define "g" ~params:[ "a"; "b" ] (fun b -> B.ret b (Reg "a")) in
  let f =
    B.define "f" ~params:[] (fun b ->
        B.call_unit b "g" [ Int 1 ];
        B.ret_unit b)
  in
  try
    let m = M.create (prog [ f; g ] "f") in
    ignore (M.run m []);
    Alcotest.fail "expected arity error"
  with M.Runtime_error _ -> ()

(* -- interprocedural loop context ------------------------------------------------ *)

let test_run_named () =
  let f =
    B.define "f" ~params:[ "alpha"; "beta" ] (fun b ->
        B.ret b (B.sub b (Reg "alpha") (Reg "beta")))
  in
  let m = M.create (prog [ f ] "f") in
  let v, _ = M.run_named m [ ("beta", VInt 3); ("alpha", VInt 10) ] in
  Alcotest.(check bool) "named args bound by name" true (v = VInt 7);
  let m2 = M.create (prog [ f ] "f") in
  try
    ignore (M.run_named m2 [ ("alpha", VInt 1) ]);
    Alcotest.fail "expected missing-binding error"
  with M.Runtime_error _ -> ()

let test_enclosing_context () =
  let callee =
    B.define "g" ~params:[ "m" ] (fun b ->
        B.for_ b "j" ~from:(Int 0) ~below:(Reg "m") (fun _ -> B.work b (Int 1));
        B.ret_unit b)
  in
  let f =
    B.define "f" ~params:[ "n"; "m" ] (fun b ->
        let n = B.prim b "taint:n" [ Reg "n" ] in
        let m' = B.prim b "taint:m" [ Reg "m" ] in
        B.for_ b "i" ~from:(Int 0) ~below:n (fun _ ->
            B.call_unit b "g" [ m' ]);
        B.ret_unit b)
  in
  let m = M.create (prog [ f; callee ] "f") in
  let _ = M.run m [ VInt 2; VInt 3 ] in
  let g_loop =
    List.find (fun lo -> lo.Obs.lo_func = "g") (Obs.loop_list (M.observations m))
  in
  Alcotest.(check bool) "g's loop knows its enclosing f loop" true
    (g_loop.Obs.lo_enclosing <> []);
  Alcotest.(check int) "g's loop ran 6 times total" 6 g_loop.Obs.lo_iters

let tests =
  [
    Alcotest.test_case "integer arithmetic" `Quick test_arith;
    Alcotest.test_case "float arithmetic" `Quick test_float_arith;
    Alcotest.test_case "comparisons and booleans" `Quick
      test_comparisons_and_bools;
    Alcotest.test_case "min/max and conversions" `Quick test_min_max_unops;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
    Alcotest.test_case "array round trip" `Quick test_array_roundtrip;
    Alcotest.test_case "array bounds checking" `Quick test_out_of_bounds;
    Alcotest.test_case "arrays zero-initialised" `Quick
      test_arrays_are_zero_initialised;
    Alcotest.test_case "taint through memory" `Quick
      test_dataflow_through_memory;
    Alcotest.test_case "array taint source" `Quick test_taint_array_source;
    Alcotest.test_case "control taint scoped to join" `Quick
      test_control_taint_scoped_to_join;
    Alcotest.test_case "control taint inside branch" `Quick
      test_control_taint_inside_branch;
    Alcotest.test_case "accumulator under tainted loop" `Quick
      test_return_under_tainted_loop;
    Alcotest.test_case "nested loop iteration counts" `Quick
      test_nested_loop_iterations;
    Alcotest.test_case "zero-iteration loop" `Quick test_zero_iteration_loop;
    Alcotest.test_case "branch coverage observation" `Quick
      test_branch_observation;
    Alcotest.test_case "primitive events" `Quick test_events_recorded;
    Alcotest.test_case "call counts and work" `Quick test_call_counts_and_work;
    Alcotest.test_case "instruction budget" `Quick test_step_budget;
    Alcotest.test_case "mpi_comm_size taints p" `Quick test_mpi_comm_size_taint;
    Alcotest.test_case "unknown primitive" `Quick test_unknown_prim;
    Alcotest.test_case "call arity mismatch" `Quick test_arity_mismatch;
    Alcotest.test_case "run_named binds by name" `Quick test_run_named;
    Alcotest.test_case "interprocedural loop context" `Quick
      test_enclosing_context;
  ]
