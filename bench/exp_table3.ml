(** Table 3: per-parameter coverage — how many computational kernels and
    loops each parameter affects, and the combined (p, size) column that
    the paper uses to argue for the two-parameter model choice. *)

let print_app name (t : Perf_taint.Pipeline.t) ~params ~combined =
  Fmt.pr "  %s:@." name;
  List.iter
    (fun (r : Perf_taint.Report.coverage_row) ->
      Fmt.pr "    %-10s functions=%3d loops=%3d@." r.cov_param r.cov_functions
        r.cov_loops)
    (Perf_taint.Report.coverage t ~params);
  let f, l = Perf_taint.Report.combined_coverage t ~params:combined in
  Fmt.pr "    %-10s functions=%3d loops=%3d@."
    (String.concat "," combined) f l

let run () =
  Exp_common.section "Table 3: per-parameter kernel and loop coverage";
  Exp_common.paper_vs
    "LULESH: size affects 40 functions / 78 loops, p only 2/2; iters 4/4, \
     regions 13/27, balance 9/20, cost 2/2; (p,size) covers all 40/78";
  Exp_common.paper_vs
    "MILC: p 54/187, size 53/161, trajecs 12/39, warms+steps 9/31, \
     niter 6/15, mass,beta 1/1, nflavors/u0 4/7; (p,size) covers 56/196";
  let lulesh = Lazy.force Exp_common.lulesh_analysis in
  let milc = Lazy.force Exp_common.milc_analysis in
  print_app "lulesh" lulesh
    ~params:[ "p"; "size"; "regions"; "iters"; "balance"; "cost" ]
    ~combined:[ "p"; "size" ];
  print_app "milc" milc
    ~params:
      [ "p"; "nx"; "ny"; "nz"; "nt"; "trajecs"; "warms"; "steps"; "niter";
        "mass"; "beta"; "nflavors"; "u0" ]
    ~combined:[ "p"; "nx"; "ny"; "nz"; "nt" ];
  Exp_common.note
    "the selection criterion reproduces: size/p give the broadest coverage \
     in LULESH, p and the domain extents dominate MILC";
  (* The paper's parameter-pruning claim: every parameter the experts
     identified is found, and no spurious parameter appears. *)
  let observed =
    Ir.Cfg.SSet.elements (Perf_taint.Pipeline.observed_params milc)
  in
  Exp_common.measured "MILC parameters detected: %s"
    (String.concat ", " observed);
  let module J = Obs_json in
  let coverage_json t ~params ~combined =
    let rows =
      List.map
        (fun (r : Perf_taint.Report.coverage_row) ->
          J.Obj
            [
              ("param", J.Str r.cov_param);
              ("functions", J.Int r.cov_functions);
              ("loops", J.Int r.cov_loops);
            ])
        (Perf_taint.Report.coverage t ~params)
    in
    let f, l = Perf_taint.Report.combined_coverage t ~params:combined in
    J.Obj
      [
        ("rows", J.List rows);
        ("combined_functions", J.Int f);
        ("combined_loops", J.Int l);
      ]
  in
  Exp_common.emit_json ~name:"table3"
    [
      ( "lulesh",
        coverage_json lulesh
          ~params:[ "p"; "size"; "regions"; "iters"; "balance"; "cost" ]
          ~combined:[ "p"; "size" ] );
      ( "milc",
        coverage_json milc
          ~params:
            [ "p"; "nx"; "ny"; "nz"; "nt"; "trajecs"; "warms"; "steps";
              "niter"; "mass"; "beta"; "nflavors"; "u0" ]
          ~combined:[ "p"; "nx"; "ny"; "nz"; "nt" ] );
      ("milc_params_detected", J.List (List.map (fun p -> J.Str p) observed));
    ]
