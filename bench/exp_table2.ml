(** Table 2: the two-phase identification of computational kernels,
    communication routines and MPI functions, and the loop pruning
    statistics, for LULESH and MILC. *)

let paper_rows =
  (* app, functions, pruned static/dynamic, kernels/comm/mpi,
     loops, loops pruned static, loops relevant *)
  [
    ("lulesh", 356, 296, 11, 40, 2, 7, 275, 52, 78);
    ("milc", 629, 364, 188, 56, 13, 8, 874, 96, 196);
  ]

let row (t : Perf_taint.Pipeline.t) ~model_params =
  Perf_taint.Report.overview t ~model_params

let print_row name (ov : Perf_taint.Report.overview) =
  Fmt.pr
    "  %-8s functions=%3d pruned=%3d/%-3d kernels/comm/MPI=%d/%d/%d \
     loops=%3d pruned-static=%3d relevant=%3d@."
    name ov.ov_functions ov.ov_pruned_static ov.ov_pruned_dynamic
    ov.ov_kernels ov.ov_comm_routines ov.ov_mpi_functions ov.ov_loops
    ov.ov_loops_pruned_static ov.ov_loops_relevant

let run () =
  Exp_common.section "Table 2: two-phase function and loop pruning";
  List.iter
    (fun (name, f, ps, pd, k, c, m, l, lps, lr) ->
      Fmt.pr
        "  paper %-8s functions=%3d pruned=%3d/%-3d kernels/comm/MPI=%d/%d/%d \
         loops=%3d pruned-static=%3d relevant=%3d@."
        name f ps pd k c m l lps lr)
    paper_rows;
  let lulesh = Lazy.force Exp_common.lulesh_analysis in
  let milc = Lazy.force Exp_common.milc_analysis in
  let lov = row lulesh ~model_params:Apps.Lulesh.model_params in
  let mov = row milc ~model_params:[ "p"; "nx"; "ny"; "nz"; "nt" ] in
  print_row "lulesh" lov;
  print_row "milc" mov;
  let pct (ov : Perf_taint.Report.overview) =
    100.
    *. float_of_int (ov.ov_pruned_static + ov.ov_pruned_dynamic)
    /. float_of_int ov.ov_functions
  in
  Exp_common.paper_vs
    "LULESH: 86.2%% of functions constant w.r.t. (p, size); MILC: 87.7%%";
  Exp_common.measured "LULESH: %.1f%%; MILC: %.1f%% of functions constant"
    (pct lov) (pct mov);
  Exp_common.note
    "(mini apps are ~5x smaller than the originals; the split between the \
     static and dynamic phases and the kernel/comm/MPI categories is the \
     reproduced shape)";
  let module J = Obs_json in
  let app name (ov : Perf_taint.Report.overview) =
    J.Obj
      [
        ("app", J.Str name);
        ("functions", J.Int ov.ov_functions);
        ("pruned_static", J.Int ov.ov_pruned_static);
        ("pruned_dynamic", J.Int ov.ov_pruned_dynamic);
        ("kernels", J.Int ov.ov_kernels);
        ("comm_routines", J.Int ov.ov_comm_routines);
        ("mpi_functions", J.Int ov.ov_mpi_functions);
        ("loops", J.Int ov.ov_loops);
        ("loops_pruned_static", J.Int ov.ov_loops_pruned_static);
        ("loops_relevant", J.Int ov.ov_loops_relevant);
        ("constant_pct", J.Float (pct ov));
      ]
  in
  Exp_common.emit_json ~name:"table2"
    [ ("apps", J.List [ app "lulesh" lov; app "milc" mov ]) ]
