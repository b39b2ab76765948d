(** Figure 4: MILC instrumentation overhead — the C-code counterpoint to
    Figure 3: the default filter provides little benefit over full
    instrumentation, while the taint-based selection is nearly free. *)

let run () =
  Exp_common.section
    "Figure 4: MILC instrumentation overhead (full / default / selective)";
  Exp_common.paper_vs
    "geometric mean overheads: 1.6%% selective, 23%% full and default \
     (default provides little to no benefit for C code)";
  let series =
    Exp_fig3.overhead_series Apps.Milc_spec.app
      (Lazy.force Exp_common.milc_selective)
      ~p_values:Apps.Milc_spec.p_values
      ~size_values:[ 32.; 128.; 512. ]
  in
  Exp_fig3.print_series series;
  let full, dflt, sel = Exp_fig3.series_stats series in
  let pct xs = 100. *. (Exp_common.geomean xs -. 1.) in
  Exp_common.measured
    "geometric mean overheads — selective: %.1f%%, full: %.1f%%, default: \
     %.1f%%"
    (pct sel) (pct full) (pct dflt);
  let module J = Obs_json in
  Exp_common.emit_json ~name:"fig4"
    [
      ("selective_geomean_overhead_pct", J.Float (pct sel));
      ("full_geomean_overhead_pct", J.Float (pct full));
      ("default_geomean_overhead_pct", J.Float (pct dflt));
    ]
