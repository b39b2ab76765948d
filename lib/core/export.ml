(** Machine-readable export of analysis results and fitted models, as
    {!Obs_json} values, to feed dashboards or the original Extra-P
    tooling. *)

open Obs_json
module SSet = Ir.Cfg.SSet

let strings ss = List (List.map (fun s -> Str s) ss)

(* -- model expressions ------------------------------------------------------ *)

let simple_term_json (st : Model.Expr.simple_term) =
  Obj [ ("exponent", Float st.Model.Expr.expo);
        ("log_exponent", Int st.Model.Expr.logexp) ]

let model_json (m : Model.Expr.model) =
  Obj
    [
      ("constant", Float m.Model.Expr.const);
      ( "terms",
        List
          (List.map
             (fun (t : Model.Expr.compound_term) ->
               Obj
                 [
                   ("coefficient", Float t.Model.Expr.coeff);
                   ( "factors",
                     Obj
                       (List.map
                          (fun (p, st) -> (p, simple_term_json st))
                          t.Model.Expr.factors) );
                 ])
             m.Model.Expr.terms) );
      ("human_readable", Str (Model.Expr.to_string m));
    ]

let result_json (r : Model.Search.result) =
  Obj
    [
      ("model", model_json r.Model.Search.model);
      ("smape_percent", Float r.Model.Search.error);
      ("rss", Float r.Model.Search.rss);
      ("hypotheses_tried", Int r.Model.Search.hypotheses_tried);
    ]

(* -- datasets ----------------------------------------------------------------- *)

let dataset_json (d : Model.Dataset.t) =
  Obj
    [
      ("parameters", strings d.Model.Dataset.params);
      ( "points",
        List
          (List.map
             (fun (pt : Model.Dataset.point) ->
               Obj
                 [
                   ( "coordinates",
                     Obj
                       (List.map (fun (p, v) -> (p, Float v)) pt.Model.Dataset.coords)
                   );
                   ("measurements",
                    List (List.map (fun v -> Float v) pt.Model.Dataset.reps));
                 ])
             d.Model.Dataset.points) );
    ]

(* -- analysis ------------------------------------------------------------------ *)

let func_deps_json (fd : Deps.func_deps) =
  Obj
    [
      ("parameters", strings (SSet.elements fd.Deps.fd_params));
      ("loop_parameters", strings (SSet.elements fd.Deps.fd_loop_params));
      ("comm_parameters", strings (SSet.elements fd.Deps.fd_comm_params));
      ( "multiplicative_pairs",
        List
          (List.map
             (fun (a, b) -> List [ Str a; Str b ])
             fd.Deps.fd_multiplicative) );
      ( "loops",
        List
          (List.map
             (fun (ld : Deps.loop_dep) ->
               Obj
                 [
                   ("header", Str ld.Deps.ld_header);
                   ("callpath", Str ld.Deps.ld_callpath);
                   ("depth", Int ld.Deps.ld_depth);
                   ("iterations", Int ld.Deps.ld_iters);
                   ("entries", Int ld.Deps.ld_entries);
                   ("parameters", strings (SSet.elements ld.Deps.ld_params));
                 ])
             fd.Deps.fd_loops) );
      ("mpi_routines", strings (SSet.elements fd.Deps.fd_mpi_routines));
    ]

(** Full analysis report: program summary, per-function classification and
    dependencies, static warnings. *)
let analysis_json (t : Pipeline.t) ~model_params =
  let ov = Report.overview t ~model_params in
  Obj
    [
      ("program", Str t.program.Ir.Types.pname);
      ("model_parameters", strings model_params);
      ( "taint_run",
        Obj
          [
            ( "arguments",
              Obj
                (List.map
                   (fun (p, v) ->
                     ( p,
                       match v with
                       | Ir.Types.VInt i -> Int i
                       | Ir.Types.VFloat f -> Float f
                       | Ir.Types.VBool b -> Bool b
                       | Ir.Types.VArr _ | Ir.Types.VUnit -> Null ))
                   t.taint_args) );
            ("ranks", Int t.world.Mpi_sim.Runtime.ranks);
            ("instructions", Int t.steps);
          ] );
      ( "overview",
        Obj
          [
            ("functions", Int ov.Report.ov_functions);
            ("pruned_static", Int ov.Report.ov_pruned_static);
            ("pruned_dynamic", Int ov.Report.ov_pruned_dynamic);
            ("kernels", Int ov.Report.ov_kernels);
            ("comm_routines", Int ov.Report.ov_comm_routines);
            ("mpi_functions", Int ov.Report.ov_mpi_functions);
            ("loops", Int ov.Report.ov_loops);
            ("loops_pruned_static", Int ov.Report.ov_loops_pruned_static);
            ("loops_relevant", Int ov.Report.ov_loops_relevant);
          ] );
      ( "functions",
        Obj
          (List.map
             (fun fname ->
               let status =
                 Pipeline.status_name (Pipeline.status t ~model_params fname)
               in
               let deps =
                 match Deps.find t.deps fname with
                 | Some fd -> func_deps_json fd
                 | None -> Obj []
               in
               (fname, Obj [ ("status", Str status); ("deps", deps) ]))
             (Pipeline.function_names t)) );
      ( "warnings",
        strings t.static.Static_an.Classify.warnings );
    ]

(* -- self-profile ------------------------------------------------------------ *)

let hist_snapshot_json (hs : Obs_metrics.hist_snapshot) =
  Obj
    [
      ( "buckets",
        List
          (List.map
             (fun (bound, count) ->
               Obj [ ("le", Float bound); ("count", Int count) ])
             hs.Obs_metrics.hs_buckets) );
      ("overflow", Int hs.Obs_metrics.hs_overflow);
      ("count", Int hs.Obs_metrics.hs_count);
      ("sum", Float hs.Obs_metrics.hs_sum);
      ("min", Float hs.Obs_metrics.hs_min);
      ("p50", Float (Obs_metrics.quantile hs 0.50));
      ("p95", Float (Obs_metrics.quantile hs 0.95));
      ("p99", Float (Obs_metrics.quantile hs 0.99));
      ("max", Float hs.Obs_metrics.hs_max);
    ]

(** A metrics snapshot: counters, gauges, histograms, each as an object
    keyed by metric name. *)
let snapshot_json (s : Obs_metrics.snapshot) =
  Obj
    [
      ( "counters",
        Obj (List.map (fun (n, v) -> (n, Int v)) s.Obs_metrics.counters) );
      ("gauges", Obj (List.map (fun (n, v) -> (n, Float v)) s.Obs_metrics.gauges));
      ( "histograms",
        Obj
          (List.map
             (fun (n, hs) -> (n, hist_snapshot_json hs))
             s.Obs_metrics.histograms) );
    ]

(** Self-profile of one analysis: phase durations, instruction counts by
    opcode class, label-table size, and the raw metrics snapshot. *)
let stats_json (t : Pipeline.t) =
  let s = t.Pipeline.snapshot in
  let labels = List.length (Taint.Label.sources t.Pipeline.labels) in
  Obj
    [
      ("program", Str t.Pipeline.program.Ir.Types.pname);
      ( "phases",
        Obj (List.map (fun (n, v) -> (n, Float v)) (Pipeline.phases t)) );
      ( "instructions",
        Obj
          (("total", Int t.Pipeline.steps)
          :: List.map
               (fun (cls, v) -> (cls, Int v))
               (Obs_metrics.counters_with_prefix s "interp.instr.")) );
      ("label_table", Obj [ ("labels", Int labels) ]);
      ("metrics", snapshot_json s);
    ]

(** Fitted models of a campaign, with quality statistics. *)
let models_json entries =
  Obj
    (List.map
       (fun (fname, (r : Model.Search.result), (data : Model.Dataset.t)) ->
         let stats = Model.Stats.summarize r.Model.Search.model data in
         ( fname,
           Obj
             [
               ("fit", result_json r);
               ("r_squared", Float stats.Model.Stats.s_r2);
               ("adjusted_r_squared", Float stats.Model.Stats.s_adj_r2);
               ("aicc", Float stats.Model.Stats.s_aicc);
               ("max_cov", Float (Model.Dataset.max_cov data));
             ] ))
       entries)
