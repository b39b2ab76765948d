(** Appendix: the full pipeline on a third application (miniCG), showing
    the method is not tuned to the paper's two benchmarks — analysis,
    dependency structure, hybrid models against ground truth, and the
    strong-scaling crossover between SpMV and the reductions. *)

module E = Model.Expr

let analysis =
  lazy
    (Perf_taint.Pipeline.analyze ~world:Apps.Minicg.taint_world
       Apps.Minicg.program ~args:Apps.Minicg.taint_args)

let run () =
  Exp_common.section "Appendix: miniCG end to end (third application)";
  let t = Lazy.force analysis in
  let ov =
    Perf_taint.Report.overview t ~model_params:Apps.Minicg.model_params
  in
  Fmt.pr "  %a@." Perf_taint.Report.pp_overview ov;
  (* Key dependency facts. *)
  Exp_common.measured "spmv deps = {%s}; n x nnz multiplicative: %b"
    (String.concat ","
       (Ir.Cfg.SSet.elements (Perf_taint.Deps.params t.deps "spmv")))
    (Perf_taint.Deps.multiplicative_ok t.deps "spmv" "n" "nnz");
  Exp_common.measured "maxit is a global factor: %b"
    (Perf_taint.Design.is_global_factor t "maxit");
  (* Hybrid models vs ground truth on a (p, n) campaign. *)
  let selective =
    Perf_taint.Pipeline.selection t ~model_params:Apps.Minicg.model_params
  in
  let design =
    Exp_common.design ~seed:23 ~mode:(Measure.Instrument.Selective selective)
      "minicg"
  in
  let runs =
    Measure.Experiment.run_design Apps.Minicg_spec.app Exp_common.machine
      design
  in
  let fit fname =
    let data =
      Measure.Experiment.kernel_dataset runs ~params:[ "p"; "n" ] ~kernel:fname
    in
    let c =
      Perf_taint.Modeling.constraints t Perf_taint.Modeling.Tainted
        ~model_params:[ "p"; "n" ] fname
    in
    Model.Search.multi ~config:Model.Search.extended_config ~constraints:c data
  in
  List.iter
    (fun fname ->
      let r = fit fname in
      Fmt.pr "    %-24s %s  (SMAPE %.1f%%)@." fname
        (E.to_string r.Model.Search.model)
        r.Model.Search.error)
    [ "spmv"; "dot_product"; "axpy"; "exchange_halo"; "mpi_allreduce" ];
  (* B1-style quality accounting on the third app. *)
  let _ =
    (* The third-app study opts into the acceptance margin: both modes
       then refuse sub-10%-improvement parametric fits. *)
    Exp_quality.campaign
      ~config:{ Model.Search.extended_config with min_improvement = 0.1 } t
      Apps.Minicg_spec.app ~selective
      ~designf:(fun ~mode -> Exp_common.design ~seed:23 ~mode "minicg")
      ~model_params:[ "p"; "n" ] ~aliases:[]
  in
  (* The strong-scaling crossover: at what p do the log p reductions
     overtake the shrinking SpMV?  Project with the fitted models. *)
  let spmv = (fit "spmv").Model.Search.model in
  let dot = (fit "dot_product").Model.Search.model in
  let crossover =
    List.find_opt
      (fun p ->
        E.eval dot [ ("p", p); ("n", 1.0e6) ]
        > E.eval spmv [ ("p", p); ("n", 1.0e6) ])
      [ 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048.; 4096. ]
  in
  (match crossover with
  | Some p ->
    Exp_common.measured
      "projected crossover at n=1e6: reductions overtake SpMV around p=%.0f"
      p
  | None ->
    Exp_common.measured
      "no crossover below p=4096 at n=1e6 (SpMV stays dominant)");
  let module J = Obs_json in
  Exp_common.emit_json ~name:"minicg"
    [
      ( "spmv_deps",
        J.List
          (List.map
             (fun p -> J.Str p)
             (Ir.Cfg.SSet.elements (Perf_taint.Deps.params t.deps "spmv"))) );
      ( "spmv_n_nnz_multiplicative",
        J.Bool (Perf_taint.Deps.multiplicative_ok t.deps "spmv" "n" "nnz") );
      ( "maxit_global_factor",
        J.Bool (Perf_taint.Design.is_global_factor t "maxit") );
      ("spmv_model", J.Str (E.to_string spmv));
      ("dot_model", J.Str (E.to_string dot));
      ( "crossover_p",
        match crossover with Some p -> J.Float p | None -> J.Null );
    ];
  (* Ground truth: spmv per call = 1.2e-9 * 27 * n/p; dot per call =
     4e-10 * n/p + 2 * lat * log2 p.  Crossover where they meet. *)
  Exp_common.note
    "(analytic truth: crossover where 3.2e-8*n/p = 4e-10*n/p + 3e-6*log2 p)"
