(** B1: noise resilience.  Fit every measured function of the 5x5x5
    campaign with plain Extra-P (black-box) and with the taint-restricted
    search space (tainted), and compare both against the testbed's ground
    truth.  The tainted models must prune the false parameter dependencies
    that noise induces — most visibly on constant functions such as
    MPI_Comm_rank. *)

module E = Model.Expr
module S = Model.Search

type verdict = { v_func : string; v_truth : string list;
                 v_black : E.model; v_tainted : E.model;
                 v_black_ok : bool; v_tainted_ok : bool; v_cov : float }

let truth_deps app fname ~model_params =
  match
    List.find_opt
      (fun (k : Measure.Spec.kernel) -> k.Measure.Spec.kname = fname)
      app.Measure.Spec.kernels
  with
  | Some k ->
    List.filter (fun p -> List.mem p model_params) k.Measure.Spec.truth_deps
    |> List.sort compare
  | None -> []

let model_params_of (m : E.model) = E.parameters m

let evaluate ?(aliases = []) ?config (t : Perf_taint.Pipeline.t) app
    ~model_params datasets =
  List.map
    (fun (fname, data) ->
      let fit mode =
        let c =
          Perf_taint.Modeling.constraints_aliased t mode ~model_params ~aliases
            fname
        in
        (Model.Search.multi ?config ~constraints:c data).S.model
      in
      let black = fit Perf_taint.Modeling.Black_box in
      let tainted = fit Perf_taint.Modeling.Tainted in
      let truth = truth_deps app fname ~model_params in
      {
        v_func = fname;
        v_truth = truth;
        v_black = black;
        v_tainted = tainted;
        v_black_ok = model_params_of black = truth;
        v_tainted_ok = model_params_of tainted = truth;
        v_cov = Model.Dataset.max_cov data;
      })
    datasets

let summarize verdicts =
  (* The paper only trusts datasets with CoV <= 0.1. *)
  let sound = List.filter (fun v -> v.v_cov <= 0.1) verdicts in
  let count f l = List.length (List.filter f l) in
  (sound, count (fun v -> v.v_black_ok) sound, count (fun v -> v.v_tainted_ok) sound)

let print_interesting verdicts =
  List.iter
    (fun v ->
      if (not v.v_black_ok) || not v.v_tainted_ok then
        Fmt.pr
          "    %-36s truth={%s}@.      black-box: %s %s@.      tainted:   %s \
           %s@."
          v.v_func
          (String.concat "," v.v_truth)
          (E.to_string v.v_black)
          (if v.v_black_ok then "(ok)" else "(WRONG DEPS)")
          (E.to_string v.v_tainted)
          (if v.v_tainted_ok then "(ok)" else "(WRONG DEPS)"))
    verdicts

let campaign ?config (t : Perf_taint.Pipeline.t) app ~selective ~designf
    ~model_params ~aliases =
  let design = designf ~mode:(Measure.Instrument.Selective selective) in
  let kernels = Measure.Instrument.SSet.elements selective in
  let datasets =
    Exp_common.run_and_collect app design ~params:model_params ~kernels
  in
  let verdicts = evaluate ~aliases ?config t app ~model_params datasets in
  let sound, black_ok, tainted_ok = summarize verdicts in
  Exp_common.measured
    "%s: of %d statistically sound functions (CoV <= 0.1): black-box \
     matches ground truth on %d, tainted on %d"
    app.Measure.Spec.aname (List.length sound) black_ok tainted_ok;
  print_interesting sound;
  verdicts

let run () =
  Exp_common.section "B1: noise resilience of tainted vs black-box models";
  Exp_common.paper_vs
    "tainted models nearly always match the manually established ground \
     truth; black-box models show false parameter dependencies (e.g. four \
     MPI_Comm_rank call sites modeled as parameter-dependent); 77%% of \
     spurious MILC models corrected";
  let lulesh = Lazy.force Exp_common.lulesh_analysis in
  let milc = Lazy.force Exp_common.milc_analysis in
  let lv =
    campaign lulesh Apps.Lulesh_spec.app
      ~selective:(Lazy.force Exp_common.lulesh_selective)
      ~designf:Exp_common.lulesh_design
      ~model_params:[ "p"; "size" ] ~aliases:[]
  in
  let mv =
    (* MILC's per-rank workload shrinks with p: give the search the
       extended (negative-exponent) menu, as a strong-scaling study
       would. *)
    campaign ~config:Model.Search.extended_config milc Apps.Milc_spec.app
      ~selective:(Lazy.force Exp_common.milc_selective)
      ~designf:Exp_common.milc_design
      ~model_params:[ "p"; "size" ] ~aliases:Exp_common.milc_aliases
  in
  (* MPI_Comm_rank: the flagship example of a constant function rescued
     from noise. *)
  List.iter
    (fun (name, verdicts) ->
      match List.find_opt (fun v -> v.v_func = "mpi_comm_rank") verdicts with
      | Some v ->
        Exp_common.measured
          "%s mpi_comm_rank: black-box = %s, tainted = %s (truth: constant)"
          name (E.to_string v.v_black) (E.to_string v.v_tainted)
      | None -> ())
    [ ("lulesh", lv); ("milc", mv) ];
  let module J = Obs_json in
  let app name verdicts =
    let sound, black_ok, tainted_ok = summarize verdicts in
    J.Obj
      [
        ("app", J.Str name);
        ("functions", J.Int (List.length verdicts));
        ("sound", J.Int (List.length sound));
        ("black_box_correct", J.Int black_ok);
        ("tainted_correct", J.Int tainted_ok);
      ]
  in
  Exp_common.emit_json ~name:"quality"
    [ ("apps", J.List [ app "lulesh" lv; app "milc" mv ]) ]
