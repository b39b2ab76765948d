(** Integration tests of the mini applications: structural validity, the
    key dependency facts the paper's experiments rely on, alignment
    between each app's PIR program and its measurement spec, and a taint
    soundness property (a parameter that changes observed loop counts must
    appear in the loop's taint set). *)

module SSet = Ir.Cfg.SSet
module P = Perf_taint.Pipeline

let lulesh =
  lazy (P.analyze ~world:Apps.Lulesh.taint_world Apps.Lulesh.program
          ~args:Apps.Lulesh.taint_args)

let milc =
  lazy (P.analyze ~world:Apps.Milc.taint_world Apps.Milc.program
          ~args:Apps.Milc.taint_args)

let deps_of t f = Perf_taint.Deps.params t.P.deps f

(* -- structural ------------------------------------------------------------- *)

let test_programs_validate () =
  List.iter
    (fun p ->
      Alcotest.(check int)
        (p.Ir.Types.pname ^ " validates")
        0
        (List.length (Ir.Validate.errors (Ir.Validate.check_program p))))
    [ Apps.Lulesh.program; Apps.Milc.program; Apps.Didactic.iterate_example;
      Apps.Didactic.foo_example; Apps.Didactic.matrix_init;
      Apps.Didactic.algorithm_selection; Apps.Didactic.control_dependence ]

let test_heat_pir_parses () =
  let p = Ir.Parser.parse_file "../../../examples/heat.pir" in
  Alcotest.(check string) "name" "heat" p.Ir.Types.pname;
  Alcotest.(check int) "errors" 0
    (List.length (Ir.Validate.errors (Ir.Validate.check_program p)))

(* Every kernel in the measurement spec must exist in the program (or be
   an MPI routine): catches drift between the PIR app and its spec. *)
let test_spec_program_alignment () =
  List.iter
    (fun ((app : Measure.Spec.app), (program : Ir.Types.program)) ->
      let fnames =
        List.map (fun (f : Ir.Types.func) -> f.Ir.Types.fname)
          program.Ir.Types.funcs
      in
      List.iter
        (fun (k : Measure.Spec.kernel) ->
          let name = k.Measure.Spec.kname in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s exists" app.Measure.Spec.aname name)
            true
            (List.mem name fnames || Mpi_sim.Costdb.is_mpi_prim name))
        app.Measure.Spec.kernels)
    [ (Apps.Lulesh_spec.app, Apps.Lulesh.program);
      (Apps.Milc_spec.app, Apps.Milc.program) ]

(* Conversely: every relevant function found by the analysis must carry a
   spec entry, or the simulator would silently never measure it. *)
let test_relevant_functions_have_specs () =
  List.iter
    (fun (t, (app : Measure.Spec.app), model_params) ->
      let spec_names =
        List.map (fun k -> k.Measure.Spec.kname) app.Measure.Spec.kernels
      in
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s has a spec" app.Measure.Spec.aname f)
            true (List.mem f spec_names))
        (P.relevant_functions (Lazy.force t) ~model_params))
    [ (lulesh, Apps.Lulesh_spec.app, Apps.Lulesh.model_params);
      (milc, Apps.Milc_spec.app, [ "p"; "nx"; "ny"; "nz"; "nt" ]) ]

(* -- LULESH dependency facts --------------------------------------------------- *)

let test_lulesh_kernel_deps () =
  let t = Lazy.force lulesh in
  let check f expected =
    Alcotest.(check (slist string compare))
      (f ^ " deps") expected (SSet.elements (deps_of t f))
  in
  check "integrate_stress_for_elems" [ "size" ];
  check "calc_force_for_nodes" [ "size" ];
  check "eval_eos_for_elems" [ "balance"; "cost"; "regions" ];
  check "comm_reduce_dt" [ "p" ];
  check "calc_q_for_elems" [ "p"; "size" ]

let test_lulesh_iters_multiplicative_with_size () =
  let t = Lazy.force lulesh in
  Alcotest.(check bool) "iters x size in stress kernel" true
    (Perf_taint.Deps.multiplicative_ok t.deps "integrate_stress_for_elems"
       "iters" "size")

let test_lulesh_regions_control_dependence () =
  (* The region loop bound is control-tainted by size (Section 5.2). *)
  let t = Lazy.force lulesh in
  Alcotest.(check bool) "size in region Q kernel" true
    (SSet.mem "size" (deps_of t "calc_monotonic_q_region_for_elems"))

let test_lulesh_comm_p () =
  let t = Lazy.force lulesh in
  let fd = Option.get (Perf_taint.Deps.find t.deps "comm_halo_nodes") in
  Alcotest.(check bool) "p from library database" true
    (SSet.mem "p" fd.Perf_taint.Deps.fd_comm_params);
  Alcotest.(check bool) "message size taints count" true
    (SSet.mem "size" fd.Perf_taint.Deps.fd_comm_params)

let test_lulesh_statuses () =
  let t = Lazy.force lulesh in
  let model_params = Apps.Lulesh.model_params in
  Alcotest.(check string) "helper pruned statically" "pruned-static"
    (P.status_name (P.status t ~model_params "triple_product"));
  Alcotest.(check string) "stress kernel is a kernel" "kernel"
    (P.status_name (P.status t ~model_params "integrate_stress_for_elems"));
  Alcotest.(check string) "halo exchange is comm" "comm"
    (P.status_name (P.status t ~model_params "comm_halo_nodes"));
  (* eval_eos depends only on cost/balance/regions: constant w.r.t.
     (p, size) -> dynamically pruned. *)
  Alcotest.(check string) "eval_eos pruned dynamically" "pruned-dynamic"
    (P.status_name (P.status t ~model_params "eval_eos_for_elems"))

let test_lulesh_no_false_parameters () =
  (* No LULESH function may depend on a parameter that does not exist. *)
  let t = Lazy.force lulesh in
  let all = P.observed_params t in
  Alcotest.(check (slist string compare))
    "only real parameters observed"
    [ "balance"; "cost"; "iters"; "p"; "regions"; "size" ]
    (SSet.elements all)

(* -- MILC dependency facts -------------------------------------------------------- *)

let test_milc_dslash_deps () =
  let t = Lazy.force milc in
  let d = deps_of t "dslash" in
  List.iter
    (fun pr ->
      Alcotest.(check bool) ("dslash depends on " ^ pr) true (SSet.mem pr d))
    [ "nx"; "ny"; "nz"; "nt"; "p" ]

let test_milc_extent_multiplicative () =
  (* The multi-label site-loop exit condition is conservatively
     multiplicative across all extents and p. *)
  let t = Lazy.force milc in
  Alcotest.(check bool) "nx x p" true
    (Perf_taint.Deps.multiplicative_ok t.deps "dslash" "nx" "p");
  Alcotest.(check bool) "nx x nt" true
    (Perf_taint.Deps.multiplicative_ok t.deps "dslash" "nx" "nt")

let test_milc_narrow_parameters () =
  let t = Lazy.force milc in
  (* u0 only drives reunitarize; nflavors only grsource/update_h. *)
  Alcotest.(check (list string)) "u0 footprint" [ "reunitarize" ]
    (P.functions_affected_by t "u0" |> List.filter (fun f -> f <> "main"));
  Alcotest.(check bool) "nflavors in grsource" true
    (SSet.mem "nflavors" (deps_of t "grsource_imp"))

let test_milc_unexecuted_detected () =
  let t = Lazy.force milc in
  List.iter
    (fun f ->
      Alcotest.(check string) (f ^ " unexecuted") "unexecuted"
        (P.status_name (P.status t ~model_params:[ "p" ] f)))
    [ "reload_lattice_from_file"; "gauge_fix_coulomb" ]

let test_milc_gather_branch_on_p () =
  let t = Lazy.force milc in
  let bo =
    Interp.Observations.branch_list t.obs
    |> List.filter (fun b -> b.Interp.Observations.br_func = "start_gather")
  in
  Alcotest.(check bool) "gather branch observed" true (bo <> []);
  Alcotest.(check bool) "condition tainted by p" true
    (List.exists
       (fun b ->
         List.mem "p"
           (Taint.Label.names t.labels b.Interp.Observations.br_dep))
       bo)

(* Regression guard: pin the Table-2 overview counts so structural changes
   to the apps or the pruning phases are caught explicitly. *)
let test_overview_regression () =
  let check name (t : Perf_taint.Pipeline.t) ~model_params expected =
    let ov = Perf_taint.Report.overview t ~model_params in
    Alcotest.(check (list int)) (name ^ " overview")
      expected
      [ ov.Perf_taint.Report.ov_functions; ov.ov_pruned_static;
        ov.ov_pruned_dynamic; ov.ov_kernels; ov.ov_comm_routines;
        ov.ov_mpi_functions; ov.ov_loops; ov.ov_loops_pruned_static;
        ov.ov_loops_relevant ]
  in
  check "lulesh" (Lazy.force lulesh) ~model_params:Apps.Lulesh.model_params
    [ 113; 66; 8; 29; 4; 6; 54; 19; 30 ];
  check "milc" (Lazy.force milc) ~model_params:[ "p"; "nx"; "ny"; "nz"; "nt" ]
    [ 95; 41; 16; 24; 6; 8; 66; 21; 28 ]

(* -- miniCG (third application) -------------------------------------------------- *)

let minicg =
  lazy (P.analyze ~world:Apps.Minicg.taint_world Apps.Minicg.program
          ~args:Apps.Minicg.taint_args)

let test_minicg_deps () =
  let t = Lazy.force minicg in
  let d = deps_of t "spmv" in
  List.iter
    (fun pr ->
      Alcotest.(check bool) ("spmv depends on " ^ pr) true (SSet.mem pr d))
    [ "n"; "nnz"; "p" ];
  Alcotest.(check bool) "n x nnz multiplicative" true
    (Perf_taint.Deps.multiplicative_ok t.deps "spmv" "n" "nnz");
  Alcotest.(check bool) "band only in halo" true
    (SSet.mem "band"
       (Option.get (Perf_taint.Deps.find t.deps "exchange_halo")).fd_comm_params)

let test_minicg_maxit_global_factor () =
  let t = Lazy.force minicg in
  Alcotest.(check bool) "maxit is a global factor" true
    (Perf_taint.Design.is_global_factor t "maxit");
  Alcotest.(check bool) "n is not" false
    (Perf_taint.Design.is_global_factor t "n")

let test_minicg_spec_alignment () =
  let t = Lazy.force minicg in
  let spec_names =
    List.map (fun k -> k.Measure.Spec.kname) Apps.Minicg_spec.app.Measure.Spec.kernels
  in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " has a spec") true (List.mem f spec_names))
    (P.relevant_functions t ~model_params:Apps.Minicg.model_params)

(* -- taint soundness property -------------------------------------------------------- *)

(* Run LULESH at two sizes; any loop whose total iteration count differs
   must carry the size label.  This is Claim 1 exercised end to end. *)
let test_taint_soundness_size () =
  let run size =
    let t =
      P.analyze ~world:Apps.Lulesh.taint_world Apps.Lulesh.program
        ~args:
          [ Ir.Types.VInt size; Ir.Types.VInt 2; Ir.Types.VInt 4;
            Ir.Types.VInt 2; Ir.Types.VInt 1 ]
    in
    t
  in
  let t1 = run 4 and t2 = run 5 in
  let iters t =
    Interp.Observations.loop_list t.P.obs
    |> List.map (fun lo ->
           ( (Interp.Observations.callpath_key lo.Interp.Observations.lo_callpath,
              lo.Interp.Observations.lo_header),
             lo ))
  in
  let m1 = iters t1 in
  let m2 = iters t2 in
  let carries_size lo =
    List.mem "size"
      (Taint.Label.names t2.P.labels lo.Interp.Observations.lo_dep)
  in
  (* A loop whose total count changed either is itself size-tainted or is
     (interprocedurally) enclosed by a size-tainted loop — constant-trip
     helper loops run more often because their caller's loop grew. *)
  let enclosing_carries_size lo =
    List.exists
      (fun key ->
        match List.assoc_opt key m2 with
        | Some enc -> carries_size enc
        | None -> false)
      lo.Interp.Observations.lo_enclosing
  in
  List.iter
    (fun (key, lo2) ->
      match List.assoc_opt key m1 with
      | Some lo1
        when lo1.Interp.Observations.lo_iters
             <> lo2.Interp.Observations.lo_iters ->
        Alcotest.(check bool)
          (Printf.sprintf "loop %s/%s accounts for size" (fst key) (snd key))
          true
          (carries_size lo2 || enclosing_carries_size lo2)
      | _ -> ())
    m2

let test_taint_soundness_niter () =
  let run niter =
    P.analyze ~world:Apps.Milc.taint_world Apps.Milc.program
      ~args:
        [ Ir.Types.VInt 4; Ir.Types.VInt 4; Ir.Types.VInt 2; Ir.Types.VInt 4;
          Ir.Types.VInt 1; Ir.Types.VInt 1; Ir.Types.VInt 1;
          Ir.Types.VInt niter; Ir.Types.VInt 2; Ir.Types.VInt 6;
          Ir.Types.VInt 2; Ir.Types.VInt 8 ]
  in
  let t1 = run 3 and t2 = run 6 in
  let iters t =
    Interp.Observations.loop_list t.P.obs
    |> List.map (fun lo ->
           ( (Interp.Observations.callpath_key lo.Interp.Observations.lo_callpath,
              lo.Interp.Observations.lo_header),
             lo.Interp.Observations.lo_iters ))
  in
  let changed =
    List.filter_map
      (fun (key, n2) ->
        match List.assoc_opt key (iters t1) with
        | Some n1 when n1 <> n2 -> Some key
        | _ -> None)
      (iters t2)
  in
  Alcotest.(check bool) "niter changes some loop" true (changed <> []);
  List.iter
    (fun (cp, header) ->
      let lo =
        List.find
          (fun lo ->
            Interp.Observations.callpath_key lo.Interp.Observations.lo_callpath
            = cp
            && lo.Interp.Observations.lo_header = header)
          (Interp.Observations.loop_list t2.P.obs)
      in
      let names = Taint.Label.names t2.P.labels lo.Interp.Observations.lo_dep in
      (* Directly tainted, or nested below a niter-tainted loop. *)
      let enclosing_ok =
        List.exists
          (fun (cp', h') ->
            List.exists
              (fun lo' ->
                Interp.Observations.callpath_key
                  lo'.Interp.Observations.lo_callpath
                = cp'
                && lo'.Interp.Observations.lo_header = h'
                && List.mem "niter"
                     (Taint.Label.names t2.P.labels
                        lo'.Interp.Observations.lo_dep))
              (Interp.Observations.loop_list t2.P.obs))
          lo.Interp.Observations.lo_enclosing
      in
      Alcotest.(check bool)
        (Printf.sprintf "loop %s/%s accounts for niter" cp header)
        true
        (List.mem "niter" names || enclosing_ok))
    changed

(* -- the app table ------------------------------------------------------------ *)

let test_registry_arity () =
  List.iter
    (fun (t : Apps.Registry.t) ->
      let entry = Ir.Types.find_func t.program t.program.Ir.Types.entry in
      Alcotest.(check int)
        (t.name ^ ": default arguments match the entry arity")
        (List.length entry.Ir.Types.fparams)
        (List.length t.args))
    Apps.Registry.all

(* The fit parameters and the contention sweep's fixed size are axes of
   the campaign grid they are measured on. *)
let test_registry_grid_axes () =
  let measured =
    List.filter_map
      (fun (t : Apps.Registry.t) ->
        Option.map (fun m -> (t.name, m)) t.measured)
      Apps.Registry.all
  in
  Alcotest.(check (list string)) "measured rows"
    [ "lulesh"; "milc"; "minicg" ] (List.map fst measured);
  List.iter
    (fun (name, (m : Apps.Registry.measured)) ->
      Alcotest.(check string) (name ^ " spec") name m.spec.Measure.Spec.aname;
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s is a grid axis" name p)
            true
            (List.mem_assoc p m.grid))
        (fst m.size_axis :: m.spec.Measure.Spec.model_params))
    measured

let test_registry_resolve () =
  let error name =
    match Apps.Registry.resolve name with
    | Error msg -> msg
    | Ok _ -> Alcotest.fail (name ^ " resolved")
  in
  Alcotest.(check string) "directory" ". is a directory, not a .pir file"
    (error ".");
  Alcotest.(check string) "unknown name"
    "unknown app nosuchapp (bundled: lulesh, milc, minicg, iterate, foo, \
     matrix, select, or a .pir file path)"
    (error "nosuchapp");
  let t =
    Result.get_ok
      (Apps.Registry.resolve ~ranks:3 ~params:[ ("size", 5) ] "iterate")
  in
  Alcotest.(check bool) "--set overrides by name" true
    (t.args = [ Ir.Types.VInt 5; VInt 2 ]);
  Alcotest.(check int) "--ranks" 3 t.world.Mpi_sim.Runtime.ranks;
  let t =
    Result.get_ok
      (Apps.Registry.resolve ~params:[ ("steps", 2) ]
         "../../../examples/heat.pir")
  in
  Alcotest.(check (list string)) ".pir model parameters" [ "n"; "steps" ]
    t.model_params;
  Alcotest.(check bool) ".pir parameters default to 4" true
    (t.args = [ Ir.Types.VInt 4; VInt 2 ] && t.measured = None)

let tests =
  [
    Alcotest.test_case "programs validate" `Quick test_programs_validate;
    Alcotest.test_case "heat.pir parses" `Quick test_heat_pir_parses;
    Alcotest.test_case "spec/program alignment" `Quick
      test_spec_program_alignment;
    Alcotest.test_case "relevant functions have specs" `Quick
      test_relevant_functions_have_specs;
    Alcotest.test_case "lulesh kernel dependencies" `Quick
      test_lulesh_kernel_deps;
    Alcotest.test_case "lulesh iters multiplicative" `Quick
      test_lulesh_iters_multiplicative_with_size;
    Alcotest.test_case "lulesh region control dependence" `Quick
      test_lulesh_regions_control_dependence;
    Alcotest.test_case "lulesh comm routine deps" `Quick test_lulesh_comm_p;
    Alcotest.test_case "lulesh function statuses" `Quick test_lulesh_statuses;
    Alcotest.test_case "lulesh: no phantom parameters" `Quick
      test_lulesh_no_false_parameters;
    Alcotest.test_case "milc dslash deps" `Quick test_milc_dslash_deps;
    Alcotest.test_case "milc extents multiplicative" `Quick
      test_milc_extent_multiplicative;
    Alcotest.test_case "milc narrow parameters" `Quick
      test_milc_narrow_parameters;
    Alcotest.test_case "milc unexecuted functions" `Quick
      test_milc_unexecuted_detected;
    Alcotest.test_case "milc gather branch tainted by p" `Quick
      test_milc_gather_branch_on_p;
    Alcotest.test_case "overview counts regression (Table 2)" `Quick
      test_overview_regression;
    Alcotest.test_case "minicg dependencies" `Quick test_minicg_deps;
    Alcotest.test_case "minicg maxit global factor" `Quick
      test_minicg_maxit_global_factor;
    Alcotest.test_case "minicg spec alignment" `Quick test_minicg_spec_alignment;
    Alcotest.test_case "taint soundness: lulesh size" `Slow
      test_taint_soundness_size;
    Alcotest.test_case "taint soundness: milc niter" `Slow
      test_taint_soundness_niter;
    Alcotest.test_case "table: default arguments fit the entry" `Quick
      test_registry_arity;
    Alcotest.test_case "table: fit and contention axes are grid axes" `Quick
      test_registry_grid_axes;
    Alcotest.test_case "table: resolve overrides and errors" `Quick
      test_registry_resolve;
  ]
