(** Scalability-bug hunting (the SC'13 use case the paper's introduction
    cites as a primary application of empirical models): fit hybrid
    models from the standard LULESH campaign, extrapolate every function
    to an exascale-style rank count, and rank by projected share.  The
    communication routines — invisible in the measured range — climb the
    ranking because of their sqrt(p)/log(p) terms. *)

let run () =
  Exp_common.section
    "Extension: scalability-bug hunt with the fitted models";
  let t = Lazy.force Exp_common.lulesh_analysis in
  let selective = Lazy.force Exp_common.lulesh_selective in
  let lulesh = Exp_common.app "lulesh" in
  let runs = Perf_taint.Study.campaign lulesh selective in
  let models =
    List.filter_map
      (fun fname ->
        Perf_taint.Study.fit lulesh t Perf_taint.Modeling.Tainted runs fname
        |> Option.map (fun ((r : Model.Search.result), _) -> (fname, r.model)))
      (Measure.Instrument.SSet.elements selective)
  in
  let baseline = [ ("p", 64.); ("size", 30.) ] in
  let target = [ ("p", 1048576.); ("size", 30.) ] in
  let ranking = Perf_taint.Scaling.rank ~baseline ~target models in
  Exp_common.measured
    "projections from p=64 to p=2^20 at size=30 (per-invocation time):";
  List.iteri
    (fun i e ->
      if i < 8 then Fmt.pr "    %a@." Perf_taint.Scaling.pp_entry e)
    ranking.Perf_taint.Scaling.entries;
  let bugs =
    Perf_taint.Scaling.bugs ~share:0.2 ~measured_below:0.05 ranking
  in
  Exp_common.measured
    "%d function(s) below 5%% of time at p=64 but above 20%% at p=2^20:"
    (List.length bugs);
  List.iter
    (fun (e : Perf_taint.Scaling.entry) ->
      Fmt.pr "    %s (share %.1f%% -> %.1f%%)@." e.e_func
        (100. *. e.e_share_measured)
        (100. *. e.e_share_projected))
    bugs;
  let module J = Obs_json in
  Exp_common.emit_json ~name:"scaling"
    [
      ("modeled_functions", J.Int (List.length models));
      ("scalability_bugs", J.Int (List.length bugs));
      ( "bugs",
        J.List
          (List.map
             (fun (e : Perf_taint.Scaling.entry) ->
               J.Obj
                 [
                   ("func", J.Str e.e_func);
                   ("share_measured", J.Float e.e_share_measured);
                   ("share_projected", J.Float e.e_share_projected);
                 ])
             bugs) );
    ];
  (* Model-quality statistics for the top kernels. *)
  Exp_common.note "model quality of the top kernels (stats module):";
  List.iter
    (fun fname ->
      let data =
        Measure.Experiment.kernel_dataset runs ~params:[ "p"; "size" ]
          ~kernel:fname
      in
      match List.assoc_opt fname models with
      | Some m when data.Model.Dataset.points <> [] ->
        Fmt.pr "    %-32s %a@." fname Model.Stats.pp_summary
          (Model.Stats.summarize m data)
      | _ -> ())
    [ "integrate_stress_for_elems"; "calc_q_for_elems"; "comm_reduce_dt" ]
