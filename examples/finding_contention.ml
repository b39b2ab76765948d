(* Hunting hardware contention with white-box models (paper Figure 5/C1).

   We sweep the number of MPI ranks per node at a fixed problem
   configuration.  The taint analysis proves the application code cannot
   depend on the placement parameter r, so when statistically sound
   measurements of compute kernels *do* grow with r, the pipeline
   concludes the effect is external — here, memory-bandwidth contention.

   Run with: dune exec examples/finding_contention.exe *)

let machine = Mpi_sim.Machine.skylake_cluster

let () =
  let t =
    Perf_taint.Pipeline.analyze ~world:Apps.Lulesh.taint_world
      Apps.Lulesh.program ~args:Apps.Lulesh.taint_args
  in
  let selective =
    Perf_taint.Pipeline.selection t ~model_params:Apps.Lulesh.model_params
  in
  (* The r-sweep: p and size fixed, placement varies. *)
  let design =
    {
      Measure.Experiment.grid =
        [ ("p", [ 64. ]); ("size", [ 30. ]);
          ("r", [ 2.; 4.; 6.; 8.; 10.; 12.; 14.; 16.; 18. ]) ];
      reps = 5;
      mode = Measure.Instrument.Selective selective;
      sigma = 0.02;
      seed = 3;
    }
  in
  let runs = Measure.Experiment.run_design Apps.Lulesh_spec.app machine design in

  Fmt.pr "== application wall time vs ranks per node ==@.";
  let total = Measure.Experiment.total_dataset runs ~params:[ "r" ] in
  List.iter
    (fun (pt : Model.Dataset.point) ->
      Fmt.pr "  r=%2.0f  %6.1f s@."
        (Model.Dataset.coord pt "r")
        (Model.Dataset.point_mean pt))
    total.Model.Dataset.points;
  let fit = Model.Search.multi total in
  Fmt.pr "  model: %s@.@." (Model.Expr.to_string fit.Model.Search.model);

  (* Contention detection: models contradicting the taint analysis. *)
  let datasets =
    List.filter_map
      (fun k ->
        let d = Measure.Experiment.kernel_dataset runs ~params:[ "r" ] ~kernel:k in
        if d.Model.Dataset.points = [] then None else Some (k, d))
      (Measure.Instrument.SSet.elements selective)
  in
  let findings = Perf_taint.Validation.detect_contention t datasets in
  Fmt.pr "== contention findings ==@.";
  Fmt.pr "%d of %d functions depend on r empirically but not in the code:@."
    (List.length findings) (List.length datasets);
  List.iter
    (fun (f : Perf_taint.Validation.contention_finding) ->
      Fmt.pr "  %-36s %s@." f.cf_func (Model.Expr.to_string f.cf_model))
    findings;
  Fmt.pr
    "@.-> the placement parameter taints nothing, so the growth must be a \
     hardware effect (shared memory bandwidth).@."
