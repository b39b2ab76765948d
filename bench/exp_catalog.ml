(** The model catalog: every fitted hybrid model for both paper
    applications with quality statistics — the artefact a performance
    engineer actually consumes (Extra-P's per-function output), plus the
    JSON export exercised end to end. *)

let catalog name (t : Perf_taint.Pipeline.t) app ~selective ~designf
    ~model_params ~aliases ~config =
  let design = designf ~mode:(Measure.Instrument.Selective selective) in
  let runs = Measure.Experiment.run_design app Exp_common.machine design in
  let entries =
    List.filter_map
      (fun fname ->
        let data =
          Measure.Experiment.kernel_dataset runs ~params:model_params
            ~kernel:fname
        in
        if data.Model.Dataset.points = [] then None
        else
          let c =
            Perf_taint.Modeling.constraints_aliased t
              Perf_taint.Modeling.Tainted ~model_params ~aliases fname
          in
          let r = Model.Search.multi ~config ~constraints:c data in
          Some (fname, r, data))
      (Measure.Instrument.SSet.elements selective)
  in
  Fmt.pr "  %s (%d functions):@." name (List.length entries);
  List.iter
    (fun (fname, (r : Model.Search.result), data) ->
      let st = Model.Stats.summarize r.Model.Search.model data in
      Fmt.pr "    %-36s %-52s R2=%.3f SMAPE=%.1f%%@." fname
        (Model.Expr.to_string r.Model.Search.model)
        st.Model.Stats.s_r2 r.Model.Search.error)
    entries;
  (* The JSON export of the same catalog (checked, not printed). *)
  let json = Perf_taint.Export.models_json entries in
  let len = String.length (Obs_json.to_string json) in
  Exp_common.note "JSON export: %d bytes (Export.models_json)" len;
  let smapes =
    List.map (fun (_, (r : Model.Search.result), _) -> r.Model.Search.error)
      entries
  in
  let mean xs =
    List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))
  in
  (List.length entries, len, mean smapes)

let run () =
  Exp_common.section "Model catalog: every fitted hybrid model";
  let l_funcs, l_bytes, l_smape =
    catalog "lulesh"
      (Lazy.force Exp_common.lulesh_analysis)
      Apps.Lulesh_spec.app
      ~selective:(Lazy.force Exp_common.lulesh_selective)
      ~designf:Exp_common.lulesh_design ~model_params:[ "p"; "size" ]
      ~aliases:[] ~config:Model.Search.default_config
  in
  let m_funcs, m_bytes, m_smape =
    catalog "milc"
      (Lazy.force Exp_common.milc_analysis)
      Apps.Milc_spec.app
      ~selective:(Lazy.force Exp_common.milc_selective)
      ~designf:Exp_common.milc_design ~model_params:[ "p"; "size" ]
      ~aliases:Exp_common.milc_aliases ~config:Model.Search.extended_config
  in
  let module J = Obs_json in
  let app name funcs bytes smape =
    J.Obj
      [
        ("app", J.Str name);
        ("modeled_functions", J.Int funcs);
        ("json_bytes", J.Int bytes);
        ("mean_smape_pct", J.Float smape);
      ]
  in
  Exp_common.emit_json ~name:"catalog"
    [
      ( "apps",
        J.List
          [ app "lulesh" l_funcs l_bytes l_smape;
            app "milc" m_funcs m_bytes m_smape ] );
    ]
