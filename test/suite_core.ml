(** Unit tests of the core pipeline pieces: dependency post-processing
    (additive vs multiplicative), hybrid model constraints (including MPI
    library-database fallbacks and parameter aliases), contention
    detection, and report consistency. *)

open Ir.Types
module B = Ir.Builder
module SSet = Ir.Cfg.SSet
module P = Perf_taint.Pipeline

let prog funcs entry = { pname = "t"; funcs; entry }

let analyze ?world p args = P.analyze ?world p ~args

(* Two disjoint loops over a and b: an additive pair. *)
let additive_program =
  let f =
    B.define "main" ~params:[ "a"; "b" ] (fun b ->
        let a = B.prim b "taint:a" [ Reg "a" ] in
        let bb = B.prim b "taint:b" [ Reg "b" ] in
        B.for_ b "i" ~from:(Int 0) ~below:a (fun _ -> B.work b (Int 1));
        B.for_ b "j" ~from:(Int 0) ~below:bb (fun _ -> B.work b (Int 1));
        B.ret_unit b)
  in
  prog [ f ] "main"

(* Nested loops over a then b: a multiplicative pair. *)
let nested_program =
  let f =
    B.define "main" ~params:[ "a"; "b" ] (fun b ->
        let a = B.prim b "taint:a" [ Reg "a" ] in
        let bb = B.prim b "taint:b" [ Reg "b" ] in
        B.for_ b "i" ~from:(Int 0) ~below:a (fun _ ->
            B.for_ b "j" ~from:(Int 0) ~below:bb (fun _ -> B.work b (Int 1)));
        B.ret_unit b)
  in
  prog [ f ] "main"

let test_additive_pair () =
  let t = analyze additive_program [ VInt 3; VInt 4 ] in
  Alcotest.(check bool) "a,b not multiplicative" false
    (Perf_taint.Deps.multiplicative_ok t.deps "main" "a" "b");
  let fd = Option.get (Perf_taint.Deps.find t.deps "main") in
  Alcotest.(check (list (pair string string))) "additive pair" [ ("a", "b") ]
    (Perf_taint.Deps.additive_pairs fd)

let test_multiplicative_pair () =
  let t = analyze nested_program [ VInt 3; VInt 4 ] in
  Alcotest.(check bool) "a,b multiplicative" true
    (Perf_taint.Deps.multiplicative_ok t.deps "main" "a" "b");
  let fd = Option.get (Perf_taint.Deps.find t.deps "main") in
  Alcotest.(check (list (pair string string))) "no additive pair" []
    (Perf_taint.Deps.additive_pairs fd)

(* -- constraints -------------------------------------------------------------------- *)

let test_constraints_additive_forbids_product () =
  let t = analyze additive_program [ VInt 3; VInt 4 ] in
  let c =
    Perf_taint.Modeling.constraints t Perf_taint.Modeling.Tainted
      ~model_params:[ "a"; "b" ] "main"
  in
  (match c.Model.Search.allowed with
  | Some l -> Alcotest.(check (slist string compare)) "both allowed" [ "a"; "b" ] l
  | None -> Alcotest.fail "tainted mode must restrict");
  match c.Model.Search.multiplicative with
  | Some ok -> Alcotest.(check bool) "product forbidden" false (ok "a" "b")
  | None -> Alcotest.fail "tainted mode must restrict products"

let test_constraints_blackbox_unrestricted () =
  let t = analyze additive_program [ VInt 3; VInt 4 ] in
  let c =
    Perf_taint.Modeling.constraints t Perf_taint.Modeling.Black_box
      ~model_params:[ "a"; "b" ] "main"
  in
  Alcotest.(check bool) "no allowed restriction" true
    (c.Model.Search.allowed = None)

let test_constraints_mpi_fallback () =
  (* mpi_allreduce is not an application function; its dependencies come
     from the library database. *)
  let f =
    B.define "main" ~params:[ "n" ] (fun b ->
        let n = B.prim b "taint:n" [ Reg "n" ] in
        B.prim_unit b "mpi_allreduce" [ n ];
        B.ret_unit b)
  in
  let t = analyze (prog [ f ] "main") [ VInt 8 ] in
  let c =
    Perf_taint.Modeling.constraints t Perf_taint.Modeling.Tainted
      ~model_params:[ "p"; "n" ] "mpi_allreduce"
  in
  match c.Model.Search.allowed with
  | Some l ->
    Alcotest.(check (slist string compare))
      "implicit p and the count's label" [ "n"; "p" ] l
  | None -> Alcotest.fail "expected restriction"

let test_constraints_aliases () =
  (* A function depending on nx must admit the model parameter size when
     size aliases the extents. *)
  let f =
    B.define "main" ~params:[ "nx" ] (fun b ->
        let nx = B.prim b "taint:nx" [ Reg "nx" ] in
        B.for_ b "i" ~from:(Int 0) ~below:nx (fun _ -> B.work b (Int 1));
        B.ret_unit b)
  in
  let t = analyze (prog [ f ] "main") [ VInt 4 ] in
  let c =
    Perf_taint.Modeling.constraints_aliased t Perf_taint.Modeling.Tainted
      ~model_params:[ "p"; "size" ]
      ~aliases:[ ("size", [ "nx"; "ny"; "nz"; "nt" ]) ]
      "main"
  in
  match c.Model.Search.allowed with
  | Some l -> Alcotest.(check (list string)) "size allowed via nx" [ "size" ] l
  | None -> Alcotest.fail "expected restriction"

(* [constraints] used to be a copy of [constraints_aliased] without
   aliases.  That copy is the reference it must still match on every
   lulesh function and MPI routine: the same allowed list and product
   predicate in tainted mode, no restriction in black-box mode. *)
let test_constraints_match_reference () =
  let t =
    P.analyze ~world:Apps.Lulesh.taint_world Apps.Lulesh.program
      ~args:Apps.Lulesh.taint_args
  in
  let params =
    List.sort_uniq compare
      (Apps.Lulesh.model_params @ SSet.elements (P.observed_params t))
  in
  let pairs =
    List.concat_map (fun a -> List.map (fun b -> (a, b)) params) params
  in
  List.iter
    (fun fname ->
      let c mode =
        Perf_taint.Modeling.constraints t mode ~model_params:params fname
      in
      let deps = Perf_taint.Modeling.dep_set t fname in
      let product a b =
        if Perf_taint.Modeling.is_mpi_routine t fname then
          SSet.mem a deps && SSet.mem b deps
        else Perf_taint.Deps.multiplicative_ok t.deps fname a b
      in
      let tainted = c Perf_taint.Modeling.Tainted in
      Alcotest.(check (option (list string)))
        (fname ^ ": allowed")
        (Some (List.filter (fun p -> SSet.mem p deps) params))
        tainted.Model.Search.allowed;
      (match tainted.Model.Search.multiplicative with
      | Some m ->
        Alcotest.(check bool) (fname ^ ": products") true
          (List.for_all (fun (a, b) -> m a b = product a b) pairs)
      | None -> Alcotest.failf "%s: products unrestricted" fname);
      Alcotest.(check bool) (fname ^ ": black-box") true
        (c Perf_taint.Modeling.Black_box = Model.Search.unconstrained))
    (P.function_names t @ List.map fst (Ir.Cfg.SMap.bindings t.mpi_params))

(* -- contention detection ------------------------------------------------------------- *)

let test_contradicts_taint () =
  let t = analyze additive_program [ VInt 3; VInt 4 ] in
  let model =
    {
      Model.Expr.const = 1.;
      terms =
        [ { Model.Expr.coeff = 2.; factors = [ ("r", { expo = 1.; logexp = 0 }) ] } ];
    }
  in
  let result =
    { Model.Search.model; error = 0.; rss = 0.; hypotheses_tried = 1 }
  in
  let external_params =
    Perf_taint.Modeling.contradicts_taint t ~fname:"main" result
  in
  Alcotest.(check (list string)) "r contradicts" [ "r" ]
    (SSet.elements external_params)

let test_detect_contention_api () =
  let t = analyze additive_program [ VInt 3; VInt 4 ] in
  (* Clean r-dependent data for main: taint says r cannot matter. *)
  let rows =
    List.map
      (fun r -> ([ ("r", r) ], [ 1. +. (0.1 *. r); 1. +. (0.1 *. r) ]))
      [ 2.; 4.; 8.; 16. ]
  in
  let data = Model.Dataset.of_rows [ "r" ] rows in
  let findings = Perf_taint.Validation.detect_contention t [ ("main", data) ] in
  Alcotest.(check int) "one finding" 1 (List.length findings);
  let f = List.hd findings in
  Alcotest.(check string) "on main" "main" f.Perf_taint.Validation.cf_func;
  Alcotest.(check (list string)) "r external" [ "r" ]
    f.Perf_taint.Validation.cf_external_params

let test_noisy_data_not_flagged () =
  let t = analyze additive_program [ VInt 3; VInt 4 ] in
  (* CoV > 0.1: statistically unsound, must be skipped. *)
  let rows =
    List.map
      (fun r -> ([ ("r", r) ], [ 1. +. (0.1 *. r); 3. +. (0.4 *. r) ]))
      [ 2.; 4.; 8.; 16. ]
  in
  let data = Model.Dataset.of_rows [ "r" ] rows in
  Alcotest.(check int) "no finding on noisy data" 0
    (List.length (Perf_taint.Validation.detect_contention t [ ("main", data) ]))

(* -- merging runs ------------------------------------------------------------------ *)

let test_merge_unions_runs () =
  (* The algorithm-selection program covers different code on the two
     sides of the threshold: merged runs see both kernels. *)
  let t_small = analyze Apps.Didactic.algorithm_selection [ VInt 2 ] in
  let t_large = analyze Apps.Didactic.algorithm_selection [ VInt 64 ] in
  let merged = Perf_taint.Deps.merge [ t_small.P.deps; t_large.P.deps ] in
  (* kernel_log only runs on the large side. *)
  Alcotest.(check bool) "kernel_log missing from small run" true
    (SSet.is_empty (Perf_taint.Deps.params t_small.deps "kernel_log"));
  Alcotest.(check bool) "kernel_log covered after merge" true
    (SSet.mem "a" (Perf_taint.Deps.params merged "kernel_log"));
  (* kernel_linear only runs on the small side; merged keeps it too. *)
  Alcotest.(check bool) "kernel_linear covered after merge" true
    (SSet.mem "a" (Perf_taint.Deps.params merged "kernel_linear"))

let test_merge_identity () =
  let t = analyze additive_program [ VInt 3; VInt 4 ] in
  let merged = Perf_taint.Deps.merge [ t.P.deps ] in
  Alcotest.(check (slist string compare)) "single merge is identity"
    (SSet.elements (Perf_taint.Deps.params t.deps "main"))
    (SSet.elements (Perf_taint.Deps.params merged "main"))

(* -- reports ---------------------------------------------------------------------------- *)

let test_overview_counts_consistent () =
  List.iter
    (fun (t, model_params) ->
      let t = Lazy.force t in
      let ov = Perf_taint.Report.overview t ~model_params in
      let sum =
        ov.ov_pruned_static + ov.ov_pruned_dynamic + ov.ov_kernels
        + ov.ov_comm_routines + ov.ov_mpi_functions
      in
      Alcotest.(check int)
        (ov.ov_app ^ ": categories partition the function count")
        ov.ov_functions sum)
    [ (lazy (analyze ~world:Apps.Lulesh.taint_world Apps.Lulesh.program
               Apps.Lulesh.taint_args),
       Apps.Lulesh.model_params);
      (lazy (analyze ~world:Apps.Milc.taint_world Apps.Milc.program
               Apps.Milc.taint_args),
       [ "p"; "nx"; "ny"; "nz"; "nt" ]) ]

let test_coverage_rows () =
  let t = analyze additive_program [ VInt 3; VInt 4 ] in
  let rows = Perf_taint.Report.coverage t ~params:[ "a"; "b"; "ghost" ] in
  let row p = List.find (fun r -> r.Perf_taint.Report.cov_param = p) rows in
  Alcotest.(check int) "a affects one function" 1 (row "a").cov_functions;
  Alcotest.(check int) "a affects one loop" 1 (row "a").cov_loops;
  Alcotest.(check int) "ghost affects nothing" 0 (row "ghost").cov_functions;
  let funcs, loops =
    Perf_taint.Report.combined_coverage t ~params:[ "a"; "b" ]
  in
  Alcotest.(check int) "combined functions (not a sum)" 1 funcs;
  Alcotest.(check int) "combined loops" 2 loops

let test_distinct_loops_observed () =
  let t = analyze nested_program [ VInt 3; VInt 4 ] in
  Alcotest.(check int) "two static loops observed" 2
    (P.distinct_loops_observed t)

let test_volume_asymptotic_params () =
  let t = analyze nested_program [ VInt 3; VInt 4 ] in
  Alcotest.(check (slist string compare)) "Claim 2 parameters" [ "a"; "b" ]
    (SSet.elements (Perf_taint.Volume.asymptotic_params t "main"))

let test_loops_by_function_merges_callpaths () =
  (* g is called from two different paths; its loop's deps merge. *)
  let g =
    B.define "g" ~params:[ "n" ] (fun b ->
        B.for_ b "i" ~from:(Int 0) ~below:(Reg "n") (fun _ -> B.work b (Int 1));
        B.ret_unit b)
  in
  let h1 =
    B.define "h1" ~params:[ "x" ] (fun b ->
        B.call_unit b "g" [ Reg "x" ];
        B.ret_unit b)
  in
  let h2 =
    B.define "h2" ~params:[ "y" ] (fun b ->
        B.call_unit b "g" [ Reg "y" ];
        B.ret_unit b)
  in
  let main =
    B.define "main" ~params:[ "a"; "b" ] (fun b ->
        let a = B.prim b "taint:a" [ Reg "a" ] in
        let bb = B.prim b "taint:b" [ Reg "b" ] in
        B.call_unit b "h1" [ a ];
        B.call_unit b "h2" [ bb ];
        B.ret_unit b)
  in
  let t = analyze (prog [ main; h1; h2; g ] "main") [ VInt 2; VInt 3 ] in
  let merged = Interp.Observations.loops_by_function t.P.obs in
  let deps =
    Hashtbl.fold
      (fun (fname, _) l acc ->
        if fname = "g" then Taint.Label.names t.P.labels l else acc)
      merged []
  in
  Alcotest.(check (slist string compare))
    "g's loop sees both call paths' labels" [ "a"; "b" ] deps;
  (* And the per-function dependency map unions them too. *)
  Alcotest.(check (slist string compare)) "fd_params union" [ "a"; "b" ]
    (SSet.elements (Perf_taint.Deps.params t.deps "g"))

let test_mpi_routine_params () =
  let f =
    B.define "main" ~params:[ "n" ] (fun b ->
        let n = B.prim b "taint:n" [ Reg "n" ] in
        B.prim_unit b "mpi_send" [ n ];
        B.ret_unit b)
  in
  let t = analyze (prog [ f ] "main") [ VInt 8 ] in
  match Ir.Cfg.SMap.find_opt "mpi_send" t.P.mpi_params with
  | Some s ->
    Alcotest.(check (slist string compare)) "send depends on p and n"
      [ "n"; "p" ] (SSet.elements s)
  | None -> Alcotest.fail "mpi_send must have routine params"

let tests =
  [
    Alcotest.test_case "additive pair detection" `Quick test_additive_pair;
    Alcotest.test_case "multiplicative pair detection" `Quick
      test_multiplicative_pair;
    Alcotest.test_case "constraints: additive forbids products" `Quick
      test_constraints_additive_forbids_product;
    Alcotest.test_case "constraints: black-box unrestricted" `Quick
      test_constraints_blackbox_unrestricted;
    Alcotest.test_case "constraints: MPI library fallback" `Quick
      test_constraints_mpi_fallback;
    Alcotest.test_case "constraints: parameter aliases" `Quick
      test_constraints_aliases;
    Alcotest.test_case "taint contradiction detection" `Quick
      test_contradicts_taint;
    Alcotest.test_case "contention finding" `Quick test_detect_contention_api;
    Alcotest.test_case "noisy data skipped (CoV filter)" `Quick
      test_noisy_data_not_flagged;
    Alcotest.test_case "merge unions tainted runs" `Quick
      test_merge_unions_runs;
    Alcotest.test_case "merge of one run is the identity" `Quick
      test_merge_identity;
    Alcotest.test_case "overview counts partition functions" `Quick
      test_overview_counts_consistent;
    Alcotest.test_case "MPI routine parameter map" `Quick
      test_mpi_routine_params;
    Alcotest.test_case "coverage rows (Table 3 mechanics)" `Quick
      test_coverage_rows;
    Alcotest.test_case "distinct loops observed" `Quick
      test_distinct_loops_observed;
    Alcotest.test_case "asymptotic params (Claim 2)" `Quick
      test_volume_asymptotic_params;
    Alcotest.test_case "loop deps merge across call paths" `Quick
      test_loops_by_function_merges_callpaths;
    Alcotest.test_case "constraints = reference on lulesh" `Quick
      test_constraints_match_reference;
  ]
