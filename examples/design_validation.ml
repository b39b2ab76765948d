(* Validating an experiment design before spending core-hours on it
   (paper C2).

   MILC's gather layer switches communication algorithm at a rank-count
   threshold.  Tainted runs at a handful of configurations reveal
   parameter-dependent branches that flip inside the planned modeling
   domain — a warning that one PMNF expression cannot represent the data
   and the domain should be split.

   Run with: dune exec examples/design_validation.exe *)

let analyze_at p =
  Perf_taint.Pipeline.analyze
    ~world:{ Mpi_sim.Runtime.ranks = p; rank = 0 }
    Apps.Milc.program ~args:Apps.Milc.taint_args

let () =
  let planned = [ 4; 8; 16; 32; 64 ] in
  Fmt.pr "planned modeling domain: p in {%s}@.@."
    (String.concat ", " (List.map string_of_int planned));

  (* Cheap tainted runs at the domain corners and midpoints. *)
  let runs = List.map analyze_at planned in
  let findings = Perf_taint.Validation.validate_design ~model_params:[ "p" ] runs in

  if findings = [] then Fmt.pr "design ok: no qualitative behavior changes@."
  else begin
    Fmt.pr "== design warnings ==@.";
    List.iter
      (fun (f : Perf_taint.Validation.design_finding) ->
        Fmt.pr "  %s (block %s), condition tainted by {%s}:@." f.df_func
          f.df_block
          (String.concat "," f.df_params);
        Fmt.pr "    behavior per p: %s@."
          (String.concat " "
             (List.map2
                (fun p (_, b) ->
                  Printf.sprintf "p=%d:%s" p
                    (Perf_taint.Validation.behavior_name b))
                planned f.df_behaviors)))
      findings;
    Fmt.pr
      "@.-> split the domain at the algorithm switch (p <= 8 vs p > 8) and \
       model each regime separately.@."
  end;

  (* Show the fit-quality consequence. *)
  let fit p_values =
    let design =
      { Measure.Experiment.default_design with
        grid = [ ("p", p_values); ("size", [ 128. ]); ("r", [ 8. ]) ];
        seed = 5 }
    in
    let runs =
      Measure.Experiment.run_design Apps.Milc_spec.app
        Mpi_sim.Machine.skylake_cluster design
    in
    let data =
      Measure.Experiment.kernel_dataset runs ~params:[ "p" ]
        ~kernel:"start_gather"
    in
    Model.Search.multi data
  in
  let across = fit [ 4.; 8.; 16.; 32.; 64. ] in
  let below = fit [ 2.; 4.; 6.; 8. ] in
  let above = fit [ 16.; 32.; 64.; 128. ] in
  Fmt.pr "@.start_gather fit quality (SMAPE):@.";
  Fmt.pr "  across the switch: %5.1f%%  (%s)@." across.Model.Search.error
    (Model.Expr.to_string across.Model.Search.model);
  Fmt.pr "  p <= 8 only:       %5.1f%%  (%s)@." below.Model.Search.error
    (Model.Expr.to_string below.Model.Search.model);
  Fmt.pr "  p >= 16 only:      %5.1f%%  (%s)@." above.Model.Search.error
    (Model.Expr.to_string above.Model.Search.model)
