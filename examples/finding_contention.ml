(* Hunting hardware contention with white-box models (paper Figure 5/C1).

   We sweep the number of MPI ranks per node at a fixed problem
   configuration.  The taint analysis proves the application code cannot
   depend on the placement parameter r, so when statistically sound
   measurements of compute kernels *do* grow with r, the pipeline
   concludes the effect is external — here, memory-bandwidth contention.

   Run with: dune exec examples/finding_contention.exe *)

let () =
  let t =
    Perf_taint.Pipeline.analyze ~world:Apps.Lulesh.taint_world
      Apps.Lulesh.program ~args:Apps.Lulesh.taint_args
  in
  let selective =
    Perf_taint.Pipeline.selection t ~model_params:Apps.Lulesh.model_params
  in
  (* The r-sweep at fixed p and size, placement varies; contention
     detection fits the models that contradict the taint analysis. *)
  let runs, measured, findings =
    Perf_taint.Study.contention
      (Option.get (Apps.Registry.find "lulesh"))
      t selective
  in

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

  Fmt.pr "== contention findings ==@.";
  Fmt.pr "%d of %d functions depend on r empirically but not in the code:@."
    (List.length findings) measured;
  List.iter
    (fun (f : Perf_taint.Validation.contention_finding) ->
      Fmt.pr "  %-36s %s@." f.cf_func (Model.Expr.to_string f.cf_model))
    findings;
  Fmt.pr
    "@.-> the placement parameter taints nothing, so the growth must be a \
     hardware effect (shared memory bandwidth).@."
