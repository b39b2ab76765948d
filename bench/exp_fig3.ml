(** Figure 3: Score-P instrumentation overhead for LULESH under full,
    default, and taint-based selective instrumentation, across rank counts
    and problem sizes. *)

let modes t =
  [
    ("full", Measure.Instrument.Full);
    ("default", Measure.Instrument.Default);
    ("selective", Measure.Instrument.Selective t);
  ]

let overhead_series app selective ~p_values ~size_values =
  List.map
    (fun size ->
      ( size,
        List.map
          (fun p ->
            let params = [ ("p", p); ("size", size); ("r", 8.) ] in
            let row =
              List.map
                (fun (name, mode) ->
                  let run =
                    Measure.Simulator.measure app Exp_common.machine ~params
                      ~mode
                  in
                  (name, Measure.Simulator.overhead run))
                (modes selective)
            in
            (p, row))
          p_values ))
    size_values

let print_series series =
  List.iter
    (fun (size, rows) ->
      Fmt.pr "  size=%g@." size;
      List.iter
        (fun (p, row) ->
          Fmt.pr "    p=%4g  %a@." p
            Fmt.(
              list ~sep:(any "  ")
                (fun ppf (name, ov) -> pf ppf "%s=%+7.1f%%" name (100. *. ov)))
            row)
        rows)
    series

let series_stats series =
  let collect name =
    List.concat_map
      (fun (_, rows) ->
        List.filter_map
          (fun (_, row) ->
            Option.map (fun ov -> 1. +. ov) (List.assoc_opt name row))
          rows)
      series
  in
  (collect "full", collect "default", collect "selective")

let run () =
  Exp_common.section
    "Figure 3: LULESH instrumentation overhead (full / default / selective)";
  Exp_common.paper_vs
    "full instrumentation slows LULESH down by up to 45x; selective \
     instrumentation removes nearly all of it; default misses relevant \
     functions";
  let series =
    overhead_series Apps.Lulesh_spec.app
      (Lazy.force Exp_common.lulesh_selective)
      ~p_values:Apps.Lulesh_spec.p_values
      ~size_values:[ 25.; 30.; 45. ]
  in
  print_series series;
  let full, dflt, sel = series_stats series in
  Exp_common.measured
    "slowdown factors — full: up to %.1fx (geomean %.1fx); default: geomean \
     %.2fx; selective: geomean %.2fx"
    (List.fold_left Float.max 1. full)
    (Exp_common.geomean full) (Exp_common.geomean dflt)
    (Exp_common.geomean sel);
  (* The default filter's false negatives: relevant functions it skips. *)
  let t = Lazy.force Exp_common.lulesh_analysis in
  let relevant =
    Perf_taint.Pipeline.relevant_functions t
      ~model_params:Apps.Lulesh.model_params
  in
  let missed =
    List.filter
      (fun name ->
        match
          List.find_opt
            (fun (k : Measure.Spec.kernel) -> k.Measure.Spec.kname = name)
            Apps.Lulesh_spec.app.Measure.Spec.kernels
        with
        | Some k -> k.Measure.Spec.tiny
        | None -> false)
      relevant
  in
  Exp_common.measured
    "default filter misses %d of %d performance-relevant functions: %s"
    (List.length missed) (List.length relevant)
    (String.concat ", " missed);
  let module J = Obs_json in
  Exp_common.emit_json ~name:"fig3"
    [
      ("full_max_slowdown", J.Float (List.fold_left Float.max 1. full));
      ("full_geomean_slowdown", J.Float (Exp_common.geomean full));
      ("default_geomean_slowdown", J.Float (Exp_common.geomean dflt));
      ("selective_geomean_slowdown", J.Float (Exp_common.geomean sel));
      ("default_missed_relevant", J.Int (List.length missed));
      ("relevant_functions", J.Int (List.length relevant));
    ]
