(** B2: measurement intrusion.  The model of CalcQForElems derived from
    fully instrumented runs differs *qualitatively* from the model derived
    from selectively instrumented runs: the intrusion of hooks turns the
    true multiplicative dependency c * p^0.25 * size^3 into an apparent
    additive one, 3e-3 * p^0.5 + 1e-5 * size^3. *)

module E = Model.Expr

let fit_from_mode ~mode =
  let design = Exp_common.lulesh_design ~mode in
  let runs =
    Measure.Experiment.run_design Apps.Lulesh_spec.app Exp_common.machine design
  in
  let data =
    Measure.Experiment.kernel_dataset runs ~params:[ "p"; "size" ]
      ~kernel:"calc_q_for_elems"
  in
  (Model.Search.multi data, runs)

let run () =
  Exp_common.section "B2: instrumentation intrusion changes models qualitatively";
  Exp_common.paper_vs
    "CalcQForElems: full instrumentation yields the additive model \
     3e-3*p^0.5 + 1e-5*size^3; selective instrumentation yields the \
     multiplicative 2.4e-8*p^0.25*size^3 (validated against prior work); \
     runtimes under full instrumentation are ~2 orders of magnitude larger";
  let full_fit, full_runs = fit_from_mode ~mode:Measure.Instrument.Full in
  let sel_fit, sel_runs =
    fit_from_mode
      ~mode:(Measure.Instrument.Selective (Lazy.force Exp_common.lulesh_selective))
  in
  Exp_common.measured "full instrumentation model:      %s"
    (E.to_string full_fit.Model.Search.model);
  Exp_common.measured "selective instrumentation model: %s"
    (E.to_string sel_fit.Model.Search.model);
  let interaction m = E.has_interaction m "p" "size" in
  Exp_common.measured
    "multiplicative p x size dependency: full=%b selective=%b (paper: \
     false / true)"
    (interaction full_fit.Model.Search.model)
    (interaction sel_fit.Model.Search.model);
  (* Mean measured CalcQForElems time inflation under full instrumentation. *)
  let mean_per_call runs =
    let ts =
      List.filter_map
        (fun r -> Measure.Simulator.kernel_time r "calc_q_for_elems")
        runs
    in
    List.fold_left ( +. ) 0. ts /. float_of_int (max 1 (List.length ts))
  in
  Exp_common.measured
    "measured CalcQForElems per-call time: %.3g s (full) vs %.3g s \
     (selective): %.0fx inflation"
    (mean_per_call full_runs) (mean_per_call sel_runs)
    (mean_per_call full_runs /. mean_per_call sel_runs);
  let module J = Obs_json in
  Exp_common.emit_json ~name:"intrusion"
    [
      ("full_model", J.Str (E.to_string full_fit.Model.Search.model));
      ("selective_model", J.Str (E.to_string sel_fit.Model.Search.model));
      ("full_interaction", J.Bool (interaction full_fit.Model.Search.model));
      ( "selective_interaction",
        J.Bool (interaction sel_fit.Model.Search.model) );
      ("full_per_call_s", J.Float (mean_per_call full_runs));
      ("selective_per_call_s", J.Float (mean_per_call sel_runs));
      ( "inflation_factor",
        J.Float (mean_per_call full_runs /. mean_per_call sel_runs) );
    ]
