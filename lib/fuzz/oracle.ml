(** Differential and metamorphic oracles over PIR programs.

    Each oracle takes a whole [Ir.Types.program] (not the generator AST),
    so the same checks run on freshly generated programs and on replayed
    [.pir] corpus files.  All oracles are exception-safe through {!check}:
    an unexpected exception is itself a finding, not a campaign abort. *)

module M = Interp.Machine
module P = Interp.Plain
module C = Interp.Coverage
module O = Interp.Observations
module L = Taint.Label
module T = Static_an.Tripcount
open Ir.Types

type verdict = Pass | Fail of string

type t = { name : string; check : Ir.Types.program -> verdict }

(* A deliberately small budget: generated loop nests can be exponential in
   depth, and a campaign must never hang.  Budget exhaustion is a skip
   (Pass), not a finding — Budget_exceeded is distinct from Runtime_error
   exactly so we can tell the two apart. *)
let interp_config = { M.default_config with max_steps = 500_000 }

let base_value = VInt 3
let perturbed_value = VInt 7

(* Every engine an oracle runs lives in the simulated MPI world, as under
   the pipeline, so programs calling MPI routines (the bundled apps,
   [examples/heat.pir]) execute instead of trapping on an unknown
   primitive.  Generated programs call only [taint:] primitives. *)
let create (type a) (module E : Interp.Engine.S with type t = a) ?metrics
    ?trace ?profile ~config p =
  let m = E.create ~config ?metrics ?trace ?profile p in
  Mpi_sim.Runtime.install_host (module E) Mpi_sim.Runtime.default_world m;
  m

type exec_result = Finished of M.t * value | Budget | Crash of string

let exec ?(config = interp_config) ?metrics ?trace prog args =
  let m = create (module M) ?metrics ?trace ~config prog in
  match M.run m args with
  | v, _ -> Finished (m, v)
  | exception M.Budget_exceeded _ -> Budget
  | exception M.Runtime_error msg -> Crash msg

let entry_func p = List.find_opt (fun f -> f.fname = p.entry) p.funcs

let entry_params p =
  match entry_func p with Some f -> f.fparams | None -> []

let base_args p = List.map (fun _ -> base_value) (entry_params p)

(* -- taint soundness ------------------------------------------------------ *)

let marked_params p =
  match entry_func p with
  | None -> []
  | Some f ->
    List.concat_map
      (fun blk ->
        List.filter_map
          (function
            | Prim (_, name, [ Reg r ]) when List.mem r f.fparams -> (
              match L.source_prim name with
              | Some pname -> Some (r, pname)
              | None -> None)
            | _ -> None)
          blk.instrs)
      f.blocks

(* Does the loop observation (or, transitively, a dynamically enclosing
   loop) carry the base label of [pname]? *)
let loop_carries m pname key0 =
  let obs = M.observations m and tbl = M.label_table m in
  let rec go seen key =
    match Hashtbl.find_opt obs.O.loops key with
    | None -> false
    | Some lo ->
      L.has tbl lo.O.lo_dep pname
      || List.exists
           (fun k -> (not (List.mem k seen)) && go (key :: seen) k)
           lo.O.lo_enclosing
  in
  go [] key0

let loop_keys m =
  Hashtbl.fold (fun k _ acc -> k :: acc) (M.observations m).O.loops []

let loop_counts m key =
  match Hashtbl.find_opt (M.observations m).O.loops key with
  | None -> (0, 0)
  | Some lo -> (lo.O.lo_iters, lo.O.lo_entries)

let loop_func m key =
  match Hashtbl.find_opt (M.observations m).O.loops key with
  | None -> None
  | Some lo -> Some lo.O.lo_func

(* The soundness rule mirrors what the analysis actually guarantees.
   Control taint is scoped to a function (it does not flow into callees),
   so for loops outside the entry function a count difference is only
   required to be labelled when both runs performed the same number of
   entries — then the difference comes from a data-flow-propagated
   argument.  For entry-function loops every count difference (iterations
   or entries) must be reflected in the loop's labels or those of a
   dynamically enclosing loop. *)
let soundness_violation m1 m2 ~entry ~pname =
  let keys = List.sort_uniq compare (loop_keys m1 @ loop_keys m2) in
  List.find_map
    (fun key ->
      let i1, e1 = loop_counts m1 key and i2, e2 = loop_counts m2 key in
      if (i1, e1) = (i2, e2) then None
      else
        let func =
          match loop_func m1 key with
          | Some f -> Some f
          | None -> loop_func m2 key
        in
        let checkable =
          match func with
          | Some f when f = entry -> true
          | Some _ -> e1 = e2 (* helper loop: only when call counts agree *)
          | None -> false
        in
        if not checkable then None
        else if loop_carries m1 pname key || loop_carries m2 pname key then
          None
        else
          let cp, header = key in
          Some
            (Printf.sprintf
               "loop %s at %s: iters %d vs %d (entries %d vs %d) when \
                perturbing %s, but its labels never mention %s"
               header cp i1 i2 e1 e2 pname pname))
    keys

let taint_soundness_with config =
  let check p =
    let marked = marked_params p in
    if marked = [] then Pass
    else
      let formals = entry_params p in
      match exec ~config p (base_args p) with
      | Budget | Crash _ -> Pass
      | Finished (m1, _) ->
        let rec try_params = function
          | [] -> Pass
          | (formal, pname) :: rest -> (
            let args =
              List.map
                (fun f -> if f = formal then perturbed_value else base_value)
                formals
            in
            match exec ~config p args with
            | Budget | Crash _ -> try_params rest
            | Finished (m2, _) -> (
              match soundness_violation m1 m2 ~entry:p.entry ~pname with
              | Some msg -> Fail msg
              | None -> try_params rest))
        in
        try_params marked
  in
  { name = "taint-soundness"; check }

let taint_soundness = taint_soundness_with interp_config

(* -- printer/parser round trip ------------------------------------------- *)

let printer_roundtrip =
  let check p =
    let text = Ir.Pp.program_to_string p in
    match Ir.Parser.parse text with
    | exception Ir.Parser.Parse_error { line; message } ->
      Fail (Printf.sprintf "printed program fails to reparse (line %d: %s)" line message)
    | p' ->
      if compare p p' = 0 then Pass
      else
        Fail
          (Printf.sprintf
             "print/parse round trip changed the program (reprint differs: %b)"
             (String.equal text (Ir.Pp.program_to_string p')))
  in
  { name = "printer-roundtrip"; check }

(* -- validator / interpreter agreement ------------------------------------ *)

let validator_interp_with config =
  let check p =
    match Ir.Validate.errors (Ir.Validate.check_program p) with
    | _ :: _ as errs ->
      let e = List.hd errs in
      Fail
        (Printf.sprintf "validator rejects a generated program: %s: %s"
           e.Ir.Validate.where e.Ir.Validate.message)
    | [] -> (
      match exec ~config p (base_args p) with
      | Finished _ | Budget -> Pass
      | Crash msg ->
        Fail (Printf.sprintf "validated program crashed the interpreter: %s" msg))
  in
  { name = "validator-interp"; check }

let validator_interp = validator_interp_with interp_config

(* -- static trip counts vs dynamic iteration counts ----------------------- *)

let tripcount_with config =
  let check p =
    let static = T.analyze_program p in
    match exec ~config p (base_args p) with
    | Budget | Crash _ -> Pass
    | Finished (m, _) ->
      let obs = M.observations m in
      let bad =
        Hashtbl.fold
          (fun _ (lo : O.loop_obs) acc ->
            match acc with
            | Some _ -> acc
            | None -> (
              let summary =
                List.find_opt
                  (fun (s : T.loop_summary) ->
                    s.T.ls_func = lo.O.lo_func
                    && s.T.ls_header = lo.O.lo_header)
                  static
              in
              match summary with
              | Some { T.ls_trip = T.Constant n; _ }
                when lo.O.lo_iters <> n * lo.O.lo_entries ->
                Some
                  (Printf.sprintf
                     "static trip count of %s.%s is %d but dynamics saw %d \
                      iters over %d entries"
                     lo.O.lo_func lo.O.lo_header n lo.O.lo_iters
                     lo.O.lo_entries)
              | _ -> None))
          obs.O.loops None
      in
      (match bad with Some msg -> Fail msg | None -> Pass)
  in
  { name = "tripcount"; check }

let tripcount = tripcount_with interp_config

(* -- metamorphic: observability must not change observations --------------- *)

type snapshot = {
  sn_value : value;
  sn_loops : (string * string * int * int * string list) list;
  sn_funcs : (string * int * int * int) list;
  sn_events : int;
  sn_steps : int;
}

let snapshot m v =
  let obs = M.observations m and tbl = M.label_table m in
  {
    sn_value = v;
    sn_loops =
      O.loop_list obs
      |> List.map (fun (lo : O.loop_obs) ->
             ( O.callpath_key lo.O.lo_callpath,
               lo.O.lo_header,
               lo.O.lo_iters,
               lo.O.lo_entries,
               L.names tbl lo.O.lo_dep ))
      |> List.sort compare;
    sn_funcs =
      O.func_list obs
      |> List.map (fun (fo : O.func_obs) ->
             (fo.O.fo_func, fo.O.fo_calls, fo.O.fo_instrs, fo.O.fo_work))
      |> List.sort compare;
    sn_events = List.length (O.event_list obs);
    sn_steps = M.steps_executed m;
  }

let obs_invariance_with config =
  let check p =
    let args = base_args p in
    let plain = exec ~config p args in
    let instrumented =
      exec ~config
        ~metrics:(Obs_metrics.create ())
        ~trace:(Obs_trace.create ())
        p args
    in
    match (plain, instrumented) with
    | Budget, Budget -> Pass
    | Crash a, Crash b when String.equal a b -> Pass
    | Finished (m1, v1), Finished (m2, v2) ->
      if compare (snapshot m1 v1) (snapshot m2 v2) = 0 then Pass
      else Fail "enabling metrics+trace instrumentation changed observations"
    | _ ->
      Fail "enabling metrics+trace instrumentation changed the run outcome"
  in
  { name = "obs-invariance"; check }

let obs_invariance = obs_invariance_with interp_config

(* -- differential: Taint vs Plain policies --------------------------------- *)

(* Label-free view of one run: result value, loop and branch dynamics per
   callpath, per-function statistics, event and step counts — everything
   the two policies must agree on ("identical modulo labels"). *)
type clean_snapshot = {
  cl_value : value;
  cl_loops : (string * string * int * int) list;
  cl_branches : (string * string * int * int) list;
  cl_funcs : (string * int * int * int) list;
  cl_events : int;
  cl_steps : int;
}

let clean_of (obs : O.t) steps v =
  {
    cl_value = v;
    cl_loops =
      O.loop_list obs
      |> List.map (fun (lo : O.loop_obs) ->
             ( O.callpath_key lo.O.lo_callpath,
               lo.O.lo_header,
               lo.O.lo_iters,
               lo.O.lo_entries ))
      |> List.sort compare;
    cl_branches =
      O.branch_list obs
      |> List.map (fun (bo : O.branch_obs) ->
             ( O.callpath_key bo.O.br_callpath,
               bo.O.br_block,
               bo.O.br_taken,
               bo.O.br_not_taken ))
      |> List.sort compare;
    cl_funcs =
      O.func_list obs
      |> List.map (fun (fo : O.func_obs) ->
             (fo.O.fo_func, fo.O.fo_calls, fo.O.fo_instrs, fo.O.fo_work))
      |> List.sort compare;
    cl_events = List.length (O.event_list obs);
    cl_steps = steps;
  }

let exec_clean (type a) (module E : Interp.Engine.S with type t = a) ~config p
    args =
  let m = create (module E) ~config p in
  match E.run m args with
  | v, _ -> `Finished (clean_of (E.observations m) (E.steps_executed m) v)
  | exception M.Budget_exceeded _ -> `Budget
  | exception M.Runtime_error msg -> `Crash msg

let diff_component a b =
  if a.cl_value <> b.cl_value then Some "result value"
  else if a.cl_loops <> b.cl_loops then Some "loop observations"
  else if a.cl_branches <> b.cl_branches then Some "branch observations"
  else if a.cl_funcs <> b.cl_funcs then Some "function statistics"
  else if a.cl_events <> b.cl_events then Some "event count"
  else if a.cl_steps <> b.cl_steps then Some "step count"
  else None

let taint_vs_plain_with config =
  let check p =
    let args = base_args p in
    let taint = exec_clean (module M) ~config p args in
    match (taint, exec_clean (module P) ~config p args) with
    | `Budget, `Budget -> Pass
    | `Crash a, `Crash b when String.equal a b -> Pass
    | `Finished a, `Finished b -> (
      match diff_component a b with
      | None -> Pass
      | Some what ->
        Fail
          (Printf.sprintf
             "Taint and Plain policies disagree on %s (steps %d vs %d)" what
             a.cl_steps b.cl_steps))
    | _ -> Fail "Taint and Plain policy runs diverged in outcome"
  in
  { name = "taint-vs-plain"; check }

let taint_vs_plain = taint_vs_plain_with interp_config

(* -- coverage accounting vs observations ----------------------------------- *)

(* Block hit counts must be consistent with the engine's own dynamics:
   summed over callpaths, a branch block is arrived at exactly
   taken + not-taken times, and a loop header exactly
   iterations + entries times. *)
let coverage_consistency_with config =
  let check p =
    let m = create (module C) ~config p in
    match C.run m (base_args p) with
    | exception M.Budget_exceeded _ -> Pass
    | exception M.Runtime_error _ -> Pass
    | _ ->
      let cov = C.policy_state m in
      let obs = C.observations m in
      let sum tbl key n =
        Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))
      in
      let expect = Hashtbl.create 32 in
      Hashtbl.iter
        (fun _ (lo : O.loop_obs) ->
          sum expect
            ("loop", lo.O.lo_func, lo.O.lo_header)
            (lo.O.lo_iters + lo.O.lo_entries))
        obs.O.loops;
      Hashtbl.iter
        (fun _ (bo : O.branch_obs) ->
          sum expect
            ("branch", bo.O.br_func, bo.O.br_block)
            (bo.O.br_taken + bo.O.br_not_taken))
        obs.O.branches;
      let bad =
        Hashtbl.fold
          (fun (kind, func, block) n acc ->
            match acc with
            | Some _ -> acc
            | None ->
              let hits = Interp.Coverage_policy.hits_of cov ~func ~block in
              if hits = n then None
              else
                Some
                  (Printf.sprintf
                     "%s block %s.%s: coverage counted %d arrivals but \
                      observations imply %d"
                     kind func block hits n))
          expect None
      in
      (match bad with Some msg -> Fail msg | None -> Pass)
  in
  { name = "coverage-consistency"; check }

let coverage_consistency = coverage_consistency_with interp_config

(* -- campaign resilience --------------------------------------------------- *)

module Sp = Measure.Spec
module Exp = Measure.Experiment
module Camp = Measure.Campaign
module Flt = Measure.Fault

(* A tiny analytic app plus a design derived deterministically from the
   program's hash: the fuzz corpus steers the campaign layer through
   ever-different grids, noise seeds, and fault draws without requiring
   the generated programs to be measurable themselves. *)
let campaign_fixture p =
  let h = abs (Hashtbl.hash p) in
  let scale = 0.05 +. (0.02 *. float_of_int (h mod 7)) in
  let pvals =
    if h land 1 = 0 then [ 4.; 8.; 16.; 32. ] else [ 8.; 16.; 32.; 64. ]
  in
  let app =
    {
      Sp.aname = Printf.sprintf "fuzz-campaign-%d" (h mod 1000);
      kernels =
        [
          Sp.kernel
            ~calls:(fun _ -> 16.)
            ~base_time:(fun ps _ -> scale *. Sp.param ps "p")
            ~truth_deps:[ "p" ] "linear_p";
          Sp.kernel
            ~calls:(fun _ -> 8.)
            ~base_time:(fun _ _ -> 0.2 *. scale)
            ~truth_deps:[] "constant";
        ];
      model_params = [ "p" ];
    }
  in
  let design =
    {
      Exp.default_design with
      Exp.grid = [ ("p", pvals) ];
      reps = 3;
      sigma = 0.005;
      seed = 1 + (h mod 997);
    }
  in
  (app, Mpi_sim.Machine.skylake_cluster, design, h)

let term_shape (m : Model.Expr.model) =
  List.sort compare (List.map (fun t -> t.Model.Expr.factors) m.Model.Expr.terms)

(* A restricted search space keeps the per-program fitting cost trivial
   while still distinguishing constant, linear, and quadratic shapes. *)
let campaign_search_config =
  {
    Model.Search.default_config with
    Model.Search.exponents = [ 0.; 1.; 2. ];
    log_exponents = [ 0 ];
    max_terms = 1;
  }

let campaign_identity =
  let check p =
    let app, machine, design, _ = campaign_fixture p in
    let clean = Exp.run_design app machine design in
    let report = Camp.run app machine design in
    if compare report.Camp.cp_runs clean = 0 then Pass
    else
      Fail
        "fault-free campaign is not bit-identical to Experiment.run_design"
  in
  { name = "campaign-identity"; check }

(* Transient crashes/hangs only, with more attempts than any transient
   fault survives: every coordinate recovers, so the campaign's runs are
   the clean runs and the robust (median + MAD) fit must land on the
   same best model term as the classic fit of the clean campaign. *)
let campaign_recovery =
  let check p =
    let app, machine, design, h = campaign_fixture p in
    let plan =
      {
        Flt.none with
        Flt.fp_seed = h mod 9001;
        fp_crash = 0.06;
        fp_hang = 0.04;
        fp_persistent = 0.;
        fp_transient_attempts = 2;
      }
    in
    let retry = { Camp.default_retry with Camp.rt_max_attempts = 3 } in
    let clean = Exp.run_design app machine design in
    let report = Camp.run ~plan ~retry app machine design in
    if compare report.Camp.cp_runs clean <> 0 then
      Fail "transient-fault campaign with retries lost or altered runs"
    else begin
      let data_clean = Exp.total_dataset clean ~params:[ "p" ] in
      let data_camp = Exp.total_dataset report.Camp.cp_runs ~params:[ "p" ] in
      let best_clean =
        Model.Search.multi ~config:campaign_search_config data_clean
      in
      let best_camp, _rejected =
        Model.Search.multi_robust ~config:campaign_search_config data_camp
      in
      if
        term_shape best_clean.Model.Search.model
        = term_shape best_camp.Model.Search.model
      then Pass
      else
        Fail
          "robust fit after transient faults selected a different best model \
           term than the clean run"
    end
  in
  { name = "campaign-recovery"; check }

(* Parallel-vs-serial bit-identity: the same faulty campaign executed
   serially and on a 3-worker domain pool must produce identical records
   (hence identical journals — the journal is a pure function of the
   records), and the model search over the resulting dataset must choose
   the identical model with identical error from serial and pooled
   scoring.  This is the determinism contract of [Par.Pool]'s ordered
   collection, exercised across the fuzz corpus's designs and fault
   draws. *)
let par_identity =
  let check p =
    let app, machine, design, h = campaign_fixture p in
    let plan =
      {
        Flt.none with
        Flt.fp_seed = h mod 7919;
        fp_crash = 0.05;
        fp_hang = 0.03;
        fp_persistent = 0.;
        fp_transient_attempts = 2;
      }
    in
    let retry = { Camp.default_retry with Camp.rt_max_attempts = 3 } in
    Par.Pool.with_pool ~jobs:3 (fun pool ->
        let serial = Camp.run ~plan ~retry app machine design in
        let parallel = Camp.run ~pool ~plan ~retry app machine design in
        if compare serial.Camp.cp_records parallel.Camp.cp_records <> 0 then
          Fail "parallel campaign records are not bit-identical to serial"
        else begin
          let data = Exp.total_dataset serial.Camp.cp_runs ~params:[ "p" ] in
          let s = Model.Search.multi ~config:campaign_search_config data in
          let q =
            Model.Search.multi
              ~config:
                { campaign_search_config with Model.Search.pool = Some pool }
              data
          in
          if
            compare
              ( s.Model.Search.model, s.Model.Search.error,
                s.Model.Search.hypotheses_tried )
              ( q.Model.Search.model, q.Model.Search.error,
                q.Model.Search.hypotheses_tried )
            <> 0
          then Fail "pooled model search differs from the serial search"
          else Pass
        end)
  in
  { name = "par-identity"; check }

(* Sharded-vs-single bit-identity: the same faulty campaign split over
   M journal-writing shards (in-process workers, each narrowed to its
   [Shard.owns] subset) and merged back must reproduce the single
   serial campaign exactly — records, merged journal bytes, every
   [campaign.*] counter, and the event stream (which the merge replays
   in design order, followed by one [shard.merge] summary).  A second
   variant kills one worker mid-shard — stops it early and tears its
   journal's trailing line, the on-disk state a SIGKILL mid-write
   leaves — and the restart/resume/merge path must converge on the
   same bytes. *)
let shard_identity =
  let module Shd = Measure.Shard in
  (* Tear the journal's trailing line: keep a strict nonempty prefix of
     the final line, exactly what a writer killed mid-[output_string]
     leaves behind. *)
  let tear_trailing_line path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let content = really_input_string ic n in
    close_in ic;
    let body = String.sub content 0 (String.length content - 1) in
    let last_nl = String.rindex body '\n' in
    let len = String.length body - last_nl - 1 in
    let keep = last_nl + 1 + max 1 (len / 2) in
    let oc = open_out_bin path in
    output_string oc (String.sub content 0 keep);
    close_out oc
  in
  let check p =
    let app, machine, design, h = campaign_fixture p in
    let plan =
      {
        Flt.none with
        Flt.fp_seed = h mod 6007;
        fp_crash = 0.05;
        fp_hang = 0.03;
        fp_persistent = 0.;
        fp_transient_attempts = 2;
      }
    in
    let retry = { Camp.default_retry with Camp.rt_max_attempts = 3 } in
    let header = Camp.header_line ~app_name:app.Sp.aname ~plan ~retry design in
    let shards = 2 + (h mod 3) in
    let base_metrics = Obs_metrics.create () in
    let base_events = Obs_events.create ~ts:false () in
    let baseline =
      Camp.run ~metrics:base_metrics ~events:base_events ~plan ~retry app
        machine design
    in
    let expected_journal =
      String.concat ""
        (List.map
           (fun l -> l ^ "\n")
           (header :: List.map Camp.record_to_line baseline.Camp.cp_records))
    in
    let journal = Filename.temp_file "fuzz-shard" ".jsonl" in
    let shard_paths = List.init shards (Shd.journal_path ~journal) in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> if Sys.file_exists p then Sys.remove p)
          (journal :: shard_paths))
    @@ fun () ->
    let run_variant ~kill =
      List.iteri
        (fun k path ->
          if Sys.file_exists path then Sys.remove path;
          let t = { Shd.sh_index = k; sh_count = shards } in
          let keep params rep = Shd.owns t ~params ~rep in
          let full ~resume =
            ignore
              (Camp.run_journaled ~plan ~retry ~keep ~journal:path ~resume
                 app machine design)
          in
          let own = List.length (Shd.coordinates t design) in
          if kill && k = h mod shards && own >= 2 then begin
            (* Worker dies after [cut] coordinates, torn mid-write. *)
            let cut = 1 + (h mod (own - 1)) in
            ignore
              (Camp.run_journaled ~plan ~retry ~keep ~limit:cut
                 ~journal:path ~resume:false app machine design);
            tear_trailing_line path;
            full ~resume:true
          end
          else full ~resume:false)
        shard_paths;
      let metrics = Obs_metrics.create () in
      let events = Obs_events.create ~ts:false () in
      match
        Shd.merge_journals ~metrics ~events ~mode:design.Exp.mode
          ~expected_header:header ~design shard_paths
      with
      | Error e -> Error e
      | Ok mg ->
        Shd.write_journal ~header ~records:mg.Shd.mg_records journal;
        let ic = open_in_bin journal in
        let bytes = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Ok (mg, bytes, Obs_metrics.snapshot metrics, Obs_events.lines events)
    in
    let check_variant label = function
      | Error e -> Fail (Printf.sprintf "%s: merge failed: %s" label e)
      | Ok (mg, bytes, snap, lines) ->
        if compare mg.Shd.mg_records baseline.Camp.cp_records <> 0 then
          Fail (label ^ ": merged records differ from the serial campaign")
        else if not (String.equal bytes expected_journal) then
          Fail (label ^ ": merged journal bytes differ from the serial \
                         campaign's")
        else begin
          let base_snap = Obs_metrics.snapshot base_metrics in
          let value s n = Option.value ~default:0 (Obs_metrics.find_counter s n) in
          let drift =
            List.find_opt
              (fun (n, _) -> value snap n <> value base_snap n)
              Camp.counters
          in
          match drift with
          | Some (n, _) ->
            Fail (Printf.sprintf "%s: counter %s diverged (%d vs %d)" label n
                    (value snap n) (value base_snap n))
          | None ->
            let base_lines = Obs_events.lines base_events in
            let nb = List.length base_lines in
            if
              List.filteri (fun i _ -> i < nb) lines <> base_lines
              || List.length lines <> nb + 1
            then
              Fail (label ^ ": merged event stream is not the serial stream \
                             plus one shard.merge event")
            else Pass
        end
    in
    match check_variant "sharded" (run_variant ~kill:false) with
    | Fail _ as f -> f
    | Pass -> check_variant "sharded+kill" (run_variant ~kill:true)
  in
  { name = "shard-identity"; check }

(* Served-model identity: a model answered out of the serve catalog —
   from the in-memory LRU, after a second cold fit, or by a fresh
   process reopening the on-disk index (the daemon-restart path) — must
   be bit-identical to the cold fit: the serialized entry (model
   expression, coefficients, fit quality, campaign counters) down to the
   byte, and the model's predictions at every grid coordinate.  The key
   binds the generated program's printed text, so the corpus also
   exercises ever-different catalog keys. *)
let serve_identity =
  let module Cat = Serve.Catalog in
  let check p =
    let app, machine, design, h = campaign_fixture p in
    let plan =
      {
        Flt.none with
        Flt.fp_seed = h mod 4999;
        fp_crash = 0.05;
        fp_hang = 0.03;
        fp_persistent = 0.;
        fp_transient_attempts = 2;
      }
    in
    let retry = { Camp.default_retry with Camp.rt_max_attempts = 3 } in
    let program_text = Ir.Pp.program_to_string p in
    let key =
      Cat.key ~app_name:app.Sp.aname ~program_text ~design ~plan ~retry
    in
    let cold = Cat.fit ~app ~machine ~design ~plan ~retry ~key () in
    let cold_line = Cat.entry_to_line cold in
    let dir = Filename.temp_file "fuzz-serve" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () ->
        let index = Filename.concat dir "catalog.jsonl" in
        if Sys.file_exists index then Sys.remove index;
        if Sys.file_exists dir then Sys.rmdir dir)
    @@ fun () ->
    let with_catalog f =
      match Cat.open_ ~dir () with
      | Error e -> Fail (Printf.sprintf "catalog open failed: %s" e)
      | Ok cat -> Fun.protect ~finally:(fun () -> Cat.close cat) (fun () -> f cat)
    in
    let predictions (e : Cat.entry) =
      List.map
        (fun v -> Model.Expr.eval e.Cat.e_model [ ("p", v) ])
        (List.assoc "p" design.Exp.grid)
    in
    with_catalog @@ fun cat ->
    if Cat.find cat key <> None then Fail "fresh catalog claims a hit"
    else begin
      Cat.insert cat cold;
      match Cat.find cat key with
      | None -> Fail "inserted entry not found (memory hit)"
      | Some warm ->
        if not (String.equal (Cat.entry_to_line warm) cold_line) then
          Fail "memory-hit entry is not bit-identical to the cold fit"
        else if
          not
            (String.equal
               (Cat.entry_to_line
                  (Cat.fit ~app ~machine ~design ~plan ~retry ~key ()))
               cold_line)
        then Fail "a second cold fit is not bit-identical to the first"
        else begin
          Cat.close cat;
          (* the daemon-restart path: a fresh process, disk index only *)
          with_catalog @@ fun reopened ->
          match Cat.find reopened key with
          | None -> Fail "reopened catalog lost the entry (restart miss)"
          | Some restored ->
            if not (String.equal (Cat.entry_to_line restored) cold_line)
            then
              Fail
                "entry restored from the on-disk index is not bit-identical \
                 to the cold fit"
            else if compare (predictions restored) (predictions cold) <> 0
            then
              Fail
                "restored model predicts differently from the cold fit's \
                 model"
            else Pass
        end
    end
  in
  { name = "serve-identity"; check }

(* -- differential: compiled tier vs the interpreter ------------------------- *)

(* The full-fidelity view of one run that the compiled tier must
   reproduce bit-for-bit: outcome (including trap messages and budget
   behavior), result value and label, every observation with its
   dependency label names, metric counters, profiler samples, and the
   taint sources in registration order (which fixes every label's
   bits). *)
type tier_snapshot = {
  ts_outcome : string;
  ts_value : (value * string list) option;
  ts_loops :
    (string * string * int * string option * int * int * string list
    * (string * string) list)
    list;
  ts_branches : (string * string * int * int * string list) list;
  ts_funcs : (string * int * int * int) list;
  ts_events : (string * string * string * (value * string list) list) list;
  ts_steps : int;
  ts_metrics : Obs_metrics.snapshot;
  ts_profile : Obs_profile.snapshot;
  ts_sources : string list;
}

let tier_snapshot (type a) (module E : Interp.Engine.S with type t = a)
    ~config p args =
  let metrics = Obs_metrics.create () in
  let profile = Obs_profile.create () in
  let m = create (module E) ~metrics ~profile ~config p in
  let outcome, value =
    match E.run m args with
    | v, l -> ("finished", Some (v, L.names (E.label_table m) l))
    | exception M.Budget_exceeded n -> (Printf.sprintf "budget after %d" n, None)
    | exception M.Runtime_error msg -> ("runtime error: " ^ msg, None)
    | exception Ir_error msg -> ("invalid IR: " ^ msg, None)
  in
  let obs = E.observations m in
  let tbl = E.label_table m in
  {
    ts_outcome = outcome;
    ts_value = value;
    ts_loops =
      O.loop_list obs
      |> List.map (fun (lo : O.loop_obs) ->
             ( O.callpath_key lo.O.lo_callpath,
               lo.O.lo_header,
               lo.O.lo_depth,
               lo.O.lo_parent,
               lo.O.lo_iters,
               lo.O.lo_entries,
               L.names tbl lo.O.lo_dep,
               List.sort compare lo.O.lo_enclosing ))
      |> List.sort compare;
    ts_branches =
      O.branch_list obs
      |> List.map (fun (bo : O.branch_obs) ->
             ( O.callpath_key bo.O.br_callpath,
               bo.O.br_block,
               bo.O.br_taken,
               bo.O.br_not_taken,
               L.names tbl bo.O.br_dep ))
      |> List.sort compare;
    ts_funcs =
      O.func_list obs
      |> List.map (fun (fo : O.func_obs) ->
             (fo.O.fo_func, fo.O.fo_calls, fo.O.fo_instrs, fo.O.fo_work))
      |> List.sort compare;
    ts_events =
      O.event_list obs
      |> List.map (fun (ev : O.event) ->
             ( ev.O.ev_func,
               O.callpath_key ev.O.ev_callpath,
               ev.O.ev_prim,
               List.map (fun (v, l) -> (v, L.names tbl l)) ev.O.ev_args ));
    ts_steps = E.steps_executed m;
    ts_metrics = Obs_metrics.snapshot metrics;
    ts_profile = Obs_profile.snapshot profile;
    ts_sources = L.sources tbl;
  }

let tier_diff a b =
  if a.ts_outcome <> b.ts_outcome then
    Some (Printf.sprintf "outcome (%s vs %s)" a.ts_outcome b.ts_outcome)
  else if compare a.ts_value b.ts_value <> 0 then Some "result value or label"
  else if a.ts_steps <> b.ts_steps then
    Some (Printf.sprintf "step count (%d vs %d)" a.ts_steps b.ts_steps)
  else if compare a.ts_loops b.ts_loops <> 0 then Some "loop observations"
  else if compare a.ts_branches b.ts_branches <> 0 then
    Some "branch observations"
  else if compare a.ts_funcs b.ts_funcs <> 0 then Some "function statistics"
  else if compare a.ts_events b.ts_events <> 0 then Some "primitive events"
  else if compare a.ts_metrics b.ts_metrics <> 0 then Some "metric counters"
  else if compare a.ts_profile b.ts_profile <> 0 then Some "profiler samples"
  else if a.ts_sources <> b.ts_sources then Some "taint-source registry"
  else None

(* Coverage runs additionally compare the policy's own block/edge hit
   tables, which live outside the engine's observations. *)
let coverage_hits (type a)
    (module E : Interp.Engine.S
      with type t = a and type pstate = Interp.Coverage_policy.state) ~config p
    args =
  let m = create (module E) ~config p in
  let outcome =
    match E.run m args with
    | _ -> "finished"
    | exception M.Budget_exceeded n -> Printf.sprintf "budget after %d" n
    | exception M.Runtime_error msg -> "runtime error: " ^ msg
    | exception Ir_error msg -> "invalid IR: " ^ msg
  in
  let cov = E.policy_state m in
  ( outcome,
    Interp.Coverage_policy.block_hits cov,
    Interp.Coverage_policy.edge_hits cov )

let compile_identity_with config =
  let check p =
    let args = base_args p in
    let it = tier_snapshot (module M) ~config p args in
    let ct = tier_snapshot (module Interp.Compiled.Taint) ~config p args in
    match tier_diff it ct with
    | Some what ->
      Fail (Printf.sprintf "compiled Taint run differs from interpreter: %s" what)
    | None -> (
      let ip = tier_snapshot (module P) ~config p args in
      let cp = tier_snapshot (module Interp.Compiled.Plain) ~config p args in
      match tier_diff ip cp with
      | Some what ->
        Fail
          (Printf.sprintf "compiled Plain run differs from interpreter: %s" what)
      | None ->
        let ic = coverage_hits (module C) ~config p args in
        let cc =
          coverage_hits (module Interp.Compiled.Coverage) ~config p args
        in
        if compare ic cc <> 0 then
          Fail "compiled Coverage run differs from interpreter (hit tables)"
        else Pass)
  in
  { name = "compile-identity"; check }

let compile_identity = compile_identity_with interp_config

(* -- suites ---------------------------------------------------------------- *)

let oracles_with config =
  [
    taint_soundness_with config;
    printer_roundtrip;
    validator_interp_with config;
    tripcount_with config;
    obs_invariance_with config;
    taint_vs_plain_with config;
    compile_identity_with config;
    coverage_consistency_with config;
    campaign_identity;
    campaign_recovery;
    par_identity;
    shard_identity;
    serve_identity;
  ]

let all_with ~max_steps = oracles_with { interp_config with max_steps }

let all = oracles_with interp_config

let check o p =
  match o.check p with
  | v -> v
  | exception exn ->
    Fail (Printf.sprintf "oracle raised %s" (Printexc.to_string exn))
