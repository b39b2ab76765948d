(** Figure 5 / C1: hardware-contention detection.  Keep p = 64 and
    size = 30 fixed and sweep the number of ranks per node r from 2 to 18.
    The taint analysis proves no function depends on r, yet the
    measurements of memory-bound kernels grow — the white-box pipeline
    flags the contradiction as an external (hardware) effect, which
    black-box modeling cannot distinguish from application behavior. *)

module E = Model.Expr

let run () =
  Exp_common.section "Figure 5 / C1: detecting hardware contention";
  Exp_common.paper_vs
    "application time grows from 130 s to 195 s (+50%%); total model \
     2.86*log2^2(r) + 127; 31 of 73 functions show an increasing model \
     although taint proves they cannot depend on the rank placement";
  let t = Lazy.force Exp_common.lulesh_analysis in
  let runs, measured, findings =
    Perf_taint.Study.contention (Exp_common.app "lulesh") t
      (Lazy.force Exp_common.lulesh_selective)
  in
  (* Whole-application model over r. *)
  let total = Measure.Experiment.total_dataset runs ~params:[ "r" ] in
  let total_fit = Model.Search.multi total in
  let at r = E.eval total_fit.Model.Search.model [ ("r", r) ] in
  Exp_common.measured "application time: %.0f s (r=2) -> %.0f s (r=18), %+.0f%%"
    (at 2.) (at 18.)
    (100. *. (at 18. -. at 2.) /. at 2.);
  Exp_common.measured "whole-application model: %s"
    (E.to_string total_fit.Model.Search.model);
  Exp_common.measured
    "%d of %d measured functions have a statistically sound increasing \
     model although taint excludes a dependency on r -> contention detected"
    (List.length findings) measured;
  List.iter
    (fun (f : Perf_taint.Validation.contention_finding) ->
      Fmt.pr "    %-36s %s@." f.cf_func (E.to_string f.cf_model))
    (List.filteri (fun i _ -> i < 6) findings);
  if List.length findings > 6 then
    Fmt.pr "    ... and %d more@." (List.length findings - 6);
  let module J = Obs_json in
  Exp_common.emit_json ~name:"fig5"
    [
      ("time_at_r2_s", J.Float (at 2.));
      ("time_at_r18_s", J.Float (at 18.));
      ("growth_pct", J.Float (100. *. (at 18. -. at 2.) /. at 2.));
      ("total_model", J.Str (E.to_string total_fit.Model.Search.model));
      ("contention_findings", J.Int (List.length findings));
      ("measured_functions", J.Int measured);
    ]
