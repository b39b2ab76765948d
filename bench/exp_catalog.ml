(** The model catalog: every fitted hybrid model for both paper
    applications with quality statistics — the artefact a performance
    engineer actually consumes (Extra-P's per-function output), plus the
    JSON export exercised end to end. *)

let catalog (row : Apps.Registry.t) t ~selective =
  let runs = Perf_taint.Study.campaign row selective in
  let entries =
    List.filter_map
      (fun fname ->
        Perf_taint.Study.fit row t Perf_taint.Modeling.Tainted runs fname
        |> Option.map (fun (r, data) -> (fname, r, data)))
      (Measure.Instrument.SSet.elements selective)
  in
  Fmt.pr "  %s (%d functions):@." row.name (List.length entries);
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
    catalog (Exp_common.app "lulesh")
      (Lazy.force Exp_common.lulesh_analysis)
      ~selective:(Lazy.force Exp_common.lulesh_selective)
  in
  let m_funcs, m_bytes, m_smape =
    catalog (Exp_common.app "milc")
      (Lazy.force Exp_common.milc_analysis)
      ~selective:(Lazy.force Exp_common.milc_selective)
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
