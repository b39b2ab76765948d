(** Section A3's cost accounting: core-hours of the full modeling
    experiment campaign under full versus taint-based selective
    instrumentation, plus the cost of the taint analysis itself. *)

let campaign app design = Measure.Experiment.run_design app Exp_common.machine design

let core_hours app ~mode ~designf =
  Measure.Experiment.core_hours (campaign app (designf ~mode))

let run () =
  Exp_common.section "A3: core-hour cost of the modeling experiments";
  Exp_common.paper_vs
    "LULESH: 20483 h (full) -> 547 h (taint-based), -97.3%%; MILC: 364 h -> \
     321 h, -13.4%%; taint analysis itself costs 1 h / 16 h";
  let lulesh_full =
    core_hours Apps.Lulesh_spec.app ~mode:Measure.Instrument.Full
      ~designf:Exp_common.lulesh_design
  in
  let lulesh_sel =
    core_hours Apps.Lulesh_spec.app
      ~mode:(Measure.Instrument.Selective (Lazy.force Exp_common.lulesh_selective))
      ~designf:Exp_common.lulesh_design
  in
  let milc_full =
    core_hours Apps.Milc_spec.app ~mode:Measure.Instrument.Full
      ~designf:Exp_common.milc_design
  in
  let milc_sel =
    core_hours Apps.Milc_spec.app
      ~mode:(Measure.Instrument.Selective (Lazy.force Exp_common.milc_selective))
      ~designf:Exp_common.milc_design
  in
  let reduction full sel = 100. *. (full -. sel) /. full in
  Exp_common.measured
    "LULESH: %.0f h (full) -> %.0f h (selective), -%.1f%%" lulesh_full
    lulesh_sel
    (reduction lulesh_full lulesh_sel);
  Exp_common.measured "MILC:   %.0f h (full) -> %.0f h (selective), -%.1f%%"
    milc_full milc_sel
    (reduction milc_full milc_sel);
  (* Cost of the taint analysis: one interpreted run at a small
     configuration. *)
  let la = Lazy.force Exp_common.lulesh_analysis in
  let ma = Lazy.force Exp_common.milc_analysis in
  Exp_common.measured
    "taint analysis: one run at a small configuration (%d / %d interpreted \
     instructions) — negligible next to the experiment savings"
    la.Perf_taint.Pipeline.steps ma.Perf_taint.Pipeline.steps;
  let module J = Obs_json in
  Exp_common.emit_json ~name:"cost"
    [
      ("lulesh_full_core_hours", J.Float lulesh_full);
      ("lulesh_selective_core_hours", J.Float lulesh_sel);
      ("lulesh_reduction_pct", J.Float (reduction lulesh_full lulesh_sel));
      ("milc_full_core_hours", J.Float milc_full);
      ("milc_selective_core_hours", J.Float milc_sel);
      ("milc_reduction_pct", J.Float (reduction milc_full milc_sel));
      ("lulesh_taint_steps", J.Int la.Perf_taint.Pipeline.steps);
      ("milc_taint_steps", J.Int ma.Perf_taint.Pipeline.steps);
    ]
