(** A2: parameter dependencies for experiment design.  The taint analysis
    distinguishes multiplicative from additive parameter pairs; additive
    pairs can be sampled with decoupled one-dimensional designs, and a
    parameter that multiplies everything (LULESH's iters) can be dropped
    from the sampling space entirely. *)

module SSet = Ir.Cfg.SSet

let run () =
  Exp_common.section "A2: multiplicative vs additive parameter dependencies";
  Exp_common.paper_vs
    "LULESH: iters appears once, in the main loop, and is therefore \
     multiplicative with every other parameter — the sample-space \
     dimensionality can be reduced by fixing it";
  let t = Lazy.force Exp_common.lulesh_analysis in
  (* Where does iters appear directly? *)
  let direct = Perf_taint.Pipeline.functions_affected_by t "iters" in
  Exp_common.measured "iters taints loops in: %s" (String.concat ", " direct);
  let iters_loops = Perf_taint.Pipeline.loops_affected_by t "iters" in
  Exp_common.measured "iters affects %d loop(s) directly" iters_loops;
  (* How many functions have an iters-multiplicative dependency through
     the enclosing time loop? *)
  let module SMap = Ir.Cfg.SMap in
  let mult_with_iters =
    SMap.fold
      (fun fname (fd : Perf_taint.Deps.func_deps) acc ->
        if
          List.exists
            (fun (a, b) -> a = "iters" || b = "iters")
            fd.fd_multiplicative
        then fname :: acc
        else acc)
      t.deps []
  in
  Exp_common.measured
    "%d functions inherit a multiplicative iters dependency through the \
     time loop -> iters scales the entire computation linearly and can be \
     fixed during sampling"
    (List.length mult_with_iters);
  (* Additive pairs: decoupled designs. *)
  let additive_report =
    SMap.fold
      (fun fname fd acc ->
        match Perf_taint.Deps.additive_pairs fd with
        | [] -> acc
        | pairs ->
          (fname,
           List.map (fun (a, b) -> Printf.sprintf "%s+%s" a b) pairs)
          :: acc)
      t.deps []
    |> List.sort compare
  in
  Exp_common.measured "functions with additive-only pairs (decoupled designs):";
  List.iter
    (fun (fname, prs) ->
      Fmt.pr "    %-36s %s@." fname (String.concat " " prs))
    (List.filteri (fun i _ -> i < 8) additive_report);
  (* Experiment-count arithmetic via the design planner. *)
  let axes =
    List.map
      (fun param ->
        { Perf_taint.Design.param; values = [ 1.; 2.; 3.; 4.; 5. ] })
      (SSet.elements (Perf_taint.Pipeline.observed_params t))
  in
  let plan = Perf_taint.Design.propose t ~axes ~reps:1 in
  Exp_common.measured "design plan from the taint results:";
  Fmt.pr "    @[<v>%a@]@." Perf_taint.Design.pp_plan plan;
  Exp_common.measured
    "the paper's study narrows further to the 2 broadest parameters \
     (p, size): 25 runs";
  let module J = Obs_json in
  Exp_common.emit_json ~name:"deps"
    [
      ("iters_direct_functions", J.List (List.map (fun f -> J.Str f) direct));
      ("iters_direct_loops", J.Int iters_loops);
      ("multiplicative_with_iters", J.Int (List.length mult_with_iters));
      ("additive_only_functions", J.Int (List.length additive_report));
    ]
