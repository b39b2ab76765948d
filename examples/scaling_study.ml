(* A scaling study of mini-LULESH, following the paper's cost pipeline
   (Section A): pick model parameters with the coverage report, derive the
   instrumentation selection, compare the core-hour cost of the
   measurement campaign under full vs selective instrumentation, and fit
   models for the hottest kernels.

   Run with: dune exec examples/scaling_study.exe *)

let machine = Mpi_sim.Machine.skylake_cluster

let () =
  (* 1. Tainted run at the paper's configuration (size=5, 8 ranks). *)
  let t =
    Perf_taint.Pipeline.analyze ~world:Apps.Lulesh.taint_world
      Apps.Lulesh.program ~args:Apps.Lulesh.taint_args
  in

  (* 2. Which parameters matter?  The coverage table drives the choice. *)
  Fmt.pr "== parameter coverage ==@.";
  List.iter
    (fun (r : Perf_taint.Report.coverage_row) ->
      Fmt.pr "  %-8s functions=%2d loops=%2d@." r.cov_param r.cov_functions
        r.cov_loops)
    (Perf_taint.Report.coverage t ~params:Apps.Lulesh.all_params);
  let model_params = [ "p"; "size" ] in
  Fmt.pr "-> modeling in (p, size)@.@.";

  (* 3. Instrumentation selection. *)
  let relevant = Perf_taint.Pipeline.relevant_functions t ~model_params in
  let selective = Perf_taint.Pipeline.selection t ~model_params in
  Fmt.pr "== instrumentation: %d of %d functions selected ==@.@."
    (List.length relevant)
    (List.length Apps.Lulesh.program.Ir.Types.funcs);

  (* 4. Cost of the measurement campaign, on the app table's grid. *)
  let lulesh = Option.get (Apps.Registry.find "lulesh") in
  let cost mode =
    Measure.Experiment.core_hours
      (Measure.Experiment.run_design Apps.Lulesh_spec.app machine
         (Perf_taint.Study.design lulesh mode))
  in
  Fmt.pr "== campaign cost ==@.";
  Fmt.pr "  full instrumentation:      %8.0f core-hours@."
    (cost Measure.Instrument.Full);
  Fmt.pr "  taint-based instrumentation: %6.0f core-hours@.@."
    (cost (Measure.Instrument.Selective selective));

  (* 5. Models of the hottest kernels from the selective campaign.  The
     campaign varies only p and size, so a kernel that depends on
     neither is never measured. *)
  let runs = Perf_taint.Study.campaign lulesh selective in
  Fmt.pr "== hybrid models (per-invocation time) ==@.";
  List.iter
    (fun kernel ->
      match
        Perf_taint.Study.fit lulesh t Perf_taint.Modeling.Tainted runs kernel
      with
      | Some (r, _) ->
        Fmt.pr "  %-36s %s@." kernel (Model.Expr.to_string r.Model.Search.model)
      | None -> Fmt.pr "  %-36s (not measured)@." kernel)
    [ "integrate_stress_for_elems"; "calc_q_for_elems"; "comm_reduce_dt";
      "calc_force_for_nodes"; "eval_eos_for_elems" ]
