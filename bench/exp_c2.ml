(** C2: validating the experiment design.  MILC's gather layer switches
    algorithm at a rank-count threshold, so measurements spanning the
    threshold mix two qualitatively different behaviors and no single
    PMNF expression fits them well.  Tainted runs at each configuration
    expose the parameter-dependent branch flip. *)

module E = Model.Expr

let analyze_at p =
  Perf_taint.Pipeline.analyze
    ~world:{ Mpi_sim.Runtime.ranks = p; rank = 0 }
    Apps.Milc.program ~args:Apps.Milc.taint_args

let fit_gather ~p_values =
  let d =
    { Measure.Experiment.default_design with
      grid = [ ("p", p_values); ("size", [ 128. ]); ("r", [ 8. ]) ];
      mode = Measure.Instrument.Selective (Lazy.force Exp_common.milc_selective);
      seed = 11 }
  in
  let runs =
    Measure.Experiment.run_design Apps.Milc_spec.app Exp_common.machine d
  in
  let data =
    Measure.Experiment.kernel_dataset runs ~params:[ "p" ] ~kernel:"start_gather"
  in
  Model.Search.multi data

let run () =
  Exp_common.section "C2: experiment-design validation (MILC gather)";
  Exp_common.paper_vs
    "communication routines behave qualitatively differently on 4-8 ranks \
     vs larger counts; models spanning the change cannot fit; expanded \
     taint analysis reports the branches that flip";
  (* Branch-coverage comparison across taint runs at different p. *)
  let runs = List.map analyze_at [ 4; 8; 16; 32 ] in
  let findings =
    Perf_taint.Validation.validate_design ~model_params:[ "p" ] runs
  in
  Exp_common.measured "%d parameter-dependent branches flip across p in {4,8,16,32}:"
    (List.length findings);
  List.iter
    (fun (f : Perf_taint.Validation.design_finding) ->
      let behavior args =
        List.assoc args (f.df_behaviors)
        |> Perf_taint.Validation.behavior_name
      in
      ignore behavior;
      Fmt.pr "    %s/%s depends on {%s}: %s@." f.df_func f.df_block
        (String.concat "," f.df_params)
        (String.concat " "
           (List.map
              (fun (_, b) -> Perf_taint.Validation.behavior_name b)
              f.df_behaviors)))
    findings;
  (* Model fit quality across vs within the behavioral regimes. *)
  let across = fit_gather ~p_values:[ 4.; 8.; 16.; 32.; 64. ] in
  let small = fit_gather ~p_values:[ 2.; 4.; 6.; 8. ] in
  let large = fit_gather ~p_values:[ 16.; 32.; 64.; 128. ] in
  Exp_common.measured
    "start_gather fit error (SMAPE): %.1f%% across the switch vs %.1f%% / \
     %.1f%% within each regime"
    across.Model.Search.error small.Model.Search.error
    large.Model.Search.error;
  Exp_common.measured "across-regimes model: %s"
    (E.to_string across.Model.Search.model);
  let module J = Obs_json in
  Exp_common.emit_json ~name:"c2"
    [
      ("flipping_branches", J.Int (List.length findings));
      ("across_smape_pct", J.Float across.Model.Search.error);
      ("small_regime_smape_pct", J.Float small.Model.Search.error);
      ("large_regime_smape_pct", J.Float large.Model.Search.error);
      ("across_model", J.Str (E.to_string across.Model.Search.model));
    ]
