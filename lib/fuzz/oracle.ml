(** Differential and metamorphic oracles over PIR programs.

    Each oracle takes a whole [Ir.Types.program] (not the generator AST),
    so the same checks run on freshly generated programs and on replayed
    [.pir] corpus files.  All oracles are exception-safe through {!check}:
    an unexpected exception is itself a finding, not a campaign abort. *)

module M = Interp.Machine
module O = Interp.Observations
module L = Taint.Label
module T = Static_an.Tripcount
open Ir.Types

type verdict = Pass | Fail of string

type t = { name : string; check : M.config -> Ir.Types.program -> verdict }

(* A deliberately small budget: generated loop nests can be exponential in
   depth, and a campaign must never hang.  Budget exhaustion is a skip
   (Pass), not a finding — Budget_exceeded is distinct from Runtime_error
   exactly so we can tell the two apart. *)
let interp_config = { M.default_config with max_steps = 500_000 }

let base_value = VInt 3
let perturbed_value = VInt 7

let verdict = function Some msg -> Fail msg | None -> Pass

let entry_func p = List.find_opt (fun f -> f.fname = p.entry) p.funcs

let entry_params p =
  match entry_func p with Some f -> f.fparams | None -> []

let base_args p = List.map (fun _ -> base_value) (entry_params p)

(* -- the run record -------------------------------------------------------- *)

(* Everything one engine run shows, with every label spelled as its
   sorted source names, so runs on different engines compare with
   [compare]: the engine oracles read or compare nothing else. *)
type outcome = Value of value * string list | Trap of string | Budget of int

type loop = {
  l_key : string * string;  (* (callpath key, header): the observation key *)
  l_func : string;
  l_depth : int;
  l_parent : string option;
  l_iters : int;
  l_entries : int;
  l_labels : string list;
  l_enclosing : (string * string) list;  (* keys in merge order *)
}

type branch = {
  b_key : string * string;  (* (callpath key, block) *)
  b_func : string;
  b_taken : int;
  b_not_taken : int;
  b_labels : string list;
}

type event = {
  e_func : string;
  e_path : string;
  e_prim : string;
  e_args : (value * string list) list;
}

type run = {
  outcome : outcome;
  loops : loop list;  (* sorted by key, as are branches and funcs *)
  branches : branch list;
  funcs : O.func_obs list;
  events : event list;  (* in execution order *)
  steps : int;
  metrics : Obs_metrics.snapshot option;
  profile : Obs_profile.snapshot option;
  sources : string list;  (* registration order, which fixes label bits *)
  blocks : ((string * string) * int) list;  (* Coverage policy hit tables *)
  edges : ((string * string * string) * int) list;
}

(* Run [p] on engine [E] in the simulated MPI world, as under the
   pipeline, so programs calling MPI routines (the bundled apps,
   [examples/heat.pir]) execute instead of trapping on an unknown
   primitive; generated programs call only [taint:] primitives.  [hits]
   reads a Coverage policy's block and edge tables. *)
let run (type a s) ?metrics ?trace ?profile ?(hits = fun _ -> ([], []))
    (module E : Interp.Engine.S with type t = a and type pstate = s) config p
    args =
  let m = E.create ~config ?metrics ?trace ?profile p in
  Mpi_sim.Runtime.install_host (module E) Mpi_sim.Runtime.default_world m;
  let names = L.names (E.label_table m) in
  let outcome =
    match E.run m args with
    | v, l -> Value (v, names l)
    | exception M.Budget_exceeded n -> Budget n
    | exception M.Runtime_error msg -> Trap msg
    | exception Ir_error msg -> Trap ("invalid IR: " ^ msg)
  in
  let obs = E.observations m and key = O.callpath_key in
  let blocks, edges = hits (E.policy_state m) in
  {
    outcome;
    loops =
      List.sort compare
        (List.map
           (fun (lo : O.loop_obs) ->
             {
               l_key = (key lo.lo_callpath, lo.lo_header);
               l_func = lo.lo_func;
               l_depth = lo.lo_depth;
               l_parent = lo.lo_parent;
               l_iters = lo.lo_iters;
               l_entries = lo.lo_entries;
               l_labels = names lo.lo_dep;
               l_enclosing = lo.lo_enclosing;
             })
           (O.loop_list obs));
    branches =
      List.sort compare
        (List.map
           (fun (bo : O.branch_obs) ->
             {
               b_key = (key bo.br_callpath, bo.br_block);
               b_func = bo.br_func;
               b_taken = bo.br_taken;
               b_not_taken = bo.br_not_taken;
               b_labels = names bo.br_dep;
             })
           (O.branch_list obs));
    funcs = List.sort compare (O.func_list obs);
    events =
      List.map
        (fun (ev : O.event) ->
          {
            e_func = ev.ev_func;
            e_path = key ev.ev_callpath;
            e_prim = ev.ev_prim;
            e_args = List.map (fun (v, l) -> (v, names l)) ev.ev_args;
          })
        (O.event_list obs);
    steps = E.steps_executed m;
    metrics = Option.map Obs_metrics.snapshot metrics;
    profile = Option.map Obs_profile.snapshot profile;
    sources = L.sources (E.label_table m);
    blocks;
    edges;
  }

let hit_tables s = Interp.Coverage_policy.(block_hits s, edge_hits s)

let finished r =
  match r.outcome with Value _ -> true | Trap _ | Budget _ -> false

let outcome_text = function
  | Value (v, labels) ->
    Fmt.str "value %a {%s}" Ir.Pp.pp_value v (String.concat "," labels)
  | Trap msg -> msg
  | Budget n -> Printf.sprintf "budget after %d" n

(* The first component on which two runs differ, if any. *)
let diff a b =
  let ne x y = compare x y <> 0 in
  List.assoc_opt true
    [
      ( ne a.outcome b.outcome,
        Printf.sprintf "outcome (%s vs %s)" (outcome_text a.outcome)
          (outcome_text b.outcome) );
      ( ne a.steps b.steps,
        Printf.sprintf "step count (%d vs %d)" a.steps b.steps );
      (ne a.loops b.loops, "loop observations");
      (ne a.branches b.branches, "branch observations");
      (ne a.funcs b.funcs, "function statistics");
      (ne a.events b.events, "primitive events");
      (ne a.metrics b.metrics, "metric counters");
      (ne a.profile b.profile, "profiler samples");
      (ne a.sources b.sources, "taint-source registry");
      (ne (a.blocks, a.edges) (b.blocks, b.edges), "coverage hit tables");
    ]

let find_loop r key = List.find_opt (fun l -> l.l_key = key) r.loops

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

(* Does the loop row (or, transitively, a dynamically enclosing loop)
   carry the base label of [pname]? *)
let loop_carries r pname key0 =
  let rec go seen key =
    match find_loop r key with
    | None -> false
    | Some l ->
      List.mem pname l.l_labels
      || List.exists
           (fun k -> (not (List.mem k seen)) && go (key :: seen) k)
           l.l_enclosing
  in
  go [] key0

(* The soundness rule mirrors what the analysis actually guarantees.
   Control taint is scoped to a function (it does not flow into callees),
   so for loops outside the entry function a count difference is only
   required to be labelled when both runs performed the same number of
   entries — then the difference comes from a data-flow-propagated
   argument.  For entry-function loops every count difference (iterations
   or entries) must be reflected in the loop's labels or those of a
   dynamically enclosing loop. *)
let soundness_violation r1 r2 ~entry ~pname =
  let keys = List.map (fun l -> l.l_key) (r1.loops @ r2.loops) in
  List.find_map
    (fun key ->
      let l1 = find_loop r1 key and l2 = find_loop r2 key in
      let counts = function
        | None -> (0, 0)
        | Some l -> (l.l_iters, l.l_entries)
      in
      let (i1, e1), (i2, e2) = (counts l1, counts l2) in
      (* [key] is a row of [r1] or of [r2] *)
      let func = (match l1 with Some l -> l | None -> Option.get l2).l_func in
      if
        (i1, e1) = (i2, e2)
        (* a helper loop only when both runs called it equally often *)
        || (func <> entry && e1 <> e2)
        || loop_carries r1 pname key
        || loop_carries r2 pname key
      then None
      else
        let cp, header = key in
        Some
          (Printf.sprintf
             "loop %s at %s: iters %d vs %d (entries %d vs %d) when \
              perturbing %s, but its labels never mention %s"
             header cp i1 i2 e1 e2 pname pname))
    (List.sort_uniq compare keys)

let taint_soundness =
  let check config p =
    let run_perturbing formal =
      run (module M) config p
        (List.map
           (fun f -> if Some f = formal then perturbed_value else base_value)
           (entry_params p))
    in
    match marked_params p with
    | [] -> Pass
    | marked ->
      let r1 = run_perturbing None in
      if not (finished r1) then Pass
      else
        verdict
          (List.find_map
             (fun (formal, pname) ->
               let r2 = run_perturbing (Some formal) in
               if finished r2 then
                 soundness_violation r1 r2 ~entry:p.entry ~pname
               else None)
             marked)
  in
  { name = "taint-soundness"; check }

(* -- printer/parser round trip ------------------------------------------- *)

let printer_roundtrip =
  let check _ p =
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

let validator_interp =
  let check config p =
    match Ir.Validate.errors (Ir.Validate.check_program p) with
    | e :: _ ->
      Fail
        (Printf.sprintf "validator rejects a generated program: %s: %s"
           e.Ir.Validate.where e.Ir.Validate.message)
    | [] -> (
      match (run (module M) config p (base_args p)).outcome with
      | Value _ | Budget _ -> Pass
      | Trap msg ->
        Fail ("validated program crashed the interpreter: " ^ msg))
  in
  { name = "validator-interp"; check }

(* -- static trip counts vs dynamic iteration counts ----------------------- *)

let tripcount =
  let check config p =
    let static = T.analyze_program p in
    let r = run (module M) config p (base_args p) in
    if not (finished r) then Pass
    else
      verdict
        (List.find_map
           (fun l ->
             let header = snd l.l_key in
             match
               List.find_opt
                 (fun (s : T.loop_summary) ->
                   s.ls_func = l.l_func && s.ls_header = header)
                 static
             with
             | Some { T.ls_trip = T.Constant n; _ }
               when l.l_iters <> n * l.l_entries ->
               Some
                 (Printf.sprintf
                    "static trip count of %s.%s is %d but dynamics saw %d \
                     iters over %d entries"
                    l.l_func header n l.l_iters l.l_entries)
             | _ -> None)
           r.loops)
  in
  { name = "tripcount"; check }

(* -- metamorphic: observability must not change observations --------------- *)

let obs_invariance =
  let check config p =
    let args = base_args p in
    let plain = run (module M) config p args in
    let traced =
      run ~metrics:(Obs_metrics.create ()) ~trace:(Obs_trace.create ())
        (module M) config p args
    in
    match diff plain { traced with metrics = None } with
    | None -> Pass
    | Some what ->
      Fail ("enabling metrics+trace instrumentation changed the " ^ what)
  in
  { name = "obs-invariance"; check }

(* -- differential: Taint vs Plain policies --------------------------------- *)

(* The run with every label and the source registry erased: the two
   policies must agree on everything else ("identical modulo labels"). *)
let unlabelled r =
  {
    r with
    outcome = (match r.outcome with Value (v, _) -> Value (v, []) | o -> o);
    loops = List.map (fun l -> { l with l_labels = [] }) r.loops;
    branches = List.map (fun b -> { b with b_labels = [] }) r.branches;
    events =
      List.map
        (fun e -> { e with e_args = List.map (fun (v, _) -> (v, [])) e.e_args })
        r.events;
    sources = [];
  }

let taint_vs_plain =
  let check config p =
    let erased e = unlabelled (run e config p (base_args p)) in
    match diff (erased (module M)) (erased (module Interp.Plain)) with
    | None -> Pass
    | Some what -> Fail ("Taint and Plain policies disagree on the " ^ what)
  in
  { name = "taint-vs-plain"; check }

(* -- coverage accounting vs observations ----------------------------------- *)

(* Block hit counts must be consistent with the engine's own dynamics:
   summed over callpaths, a branch block is arrived at exactly
   taken + not-taken times, and a loop header exactly
   iterations + entries times. *)
let coverage_consistency =
  let check config p =
    let r =
      run ~hits:hit_tables (module Interp.Coverage) config p (base_args p)
    in
    let expect =
      List.map
        (fun l -> (("loop", l.l_func, snd l.l_key), l.l_iters + l.l_entries))
        r.loops
      @ List.map
          (fun b ->
            (("branch", b.b_func, snd b.b_key), b.b_taken + b.b_not_taken))
          r.branches
    in
    let mismatch ((kind, func, block) as k) =
      let n =
        List.fold_left (fun acc (k', n) -> if k' = k then acc + n else acc) 0
          expect
      and hits =
        Option.value ~default:0 (List.assoc_opt (func, block) r.blocks)
      in
      if hits = n then None
      else
        Some
          (Printf.sprintf
             "%s block %s.%s: coverage counted %d arrivals but observations \
              imply %d"
             kind func block hits n)
    in
    if not (finished r) then Pass
    else
      verdict
        (List.find_map mismatch (List.sort_uniq compare (List.map fst expect)))
  in
  { name = "coverage-consistency"; check }

(* -- differential: compiled tier vs the interpreter ------------------------- *)

(* The compiled tier must reproduce the interpreter's whole run record
   bit for bit under every bundled policy, with metrics and the profiler
   attached. *)
let compile_identity =
  let check config p =
    let tier ?hits e =
      run ~metrics:(Obs_metrics.create ()) ~profile:(Obs_profile.create ())
        ?hits e config p (base_args p)
    in
    let pair ?hits policy interp compiled () =
      Option.map
        (Printf.sprintf "compiled %s run differs from interpreter: %s" policy)
        (diff (tier ?hits interp) (tier ?hits compiled))
    in
    verdict
      (List.find_map
         (fun f -> f ())
         [
           pair "Taint" (module M) (module Interp.Compiled.Taint);
           pair "Plain" (module Interp.Plain) (module Interp.Compiled.Plain);
           pair ~hits:hit_tables "Coverage" (module Interp.Coverage)
             (module Interp.Compiled.Coverage);
         ])
  in
  { name = "compile-identity"; check }

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

(* The transient-fault plan of the campaign-layer oracles: crashes and
   hangs that each last two attempts, under a retry policy of three, so
   every coordinate recovers. *)
let transient_faults h =
  ( {
      Flt.none with
      Flt.fp_seed = h mod 9001;
      fp_crash = 0.06;
      fp_hang = 0.04;
      fp_persistent = 0.;
      fp_transient_attempts = 2;
    },
    { Camp.default_retry with Camp.rt_max_attempts = 3 } )

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
  let check _ p =
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
  let check _ p =
    let app, machine, design, h = campaign_fixture p in
    let plan, retry = transient_faults h in
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
  let check _ p =
    let app, machine, design, h = campaign_fixture p in
    let plan, retry = transient_faults h in
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

(* Sharded-vs-single bit-identity: the same faulty campaign run by
   [Shard.coordinate], the coordinator of [campaign --shards], over M
   in-process journal-writing workers, each narrowed to its [Shard.owns]
   subset, must reproduce the single serial campaign exactly — records,
   merged journal bytes, every [campaign.*] counter, and the event
   stream (which the merge replays in design order, followed by one
   [shard.merge] summary).  A second variant kills one worker on its
   first launch — stops it early and tears its journal's trailing line,
   the on-disk state a SIGKILL mid-write leaves — and the coordinator's
   restart/resume/merge path must converge on the same bytes. *)
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
  (* The event stream without the coordinator's supervision events,
     which depend on timing and sit outside the identity contract, and
     without the sequence numbers they take. *)
  let unsupervised lines =
    List.filter_map
      (fun line ->
        match Obs_json.parse line with
        | Ok (Obs_json.Obj fields) -> (
          match List.assoc_opt "event" fields with
          | Some
              (Obs_json.Str ("shard.spawn" | "shard.death" | "shard.restart"))
            ->
            None
          | _ -> Some (Obs_json.Obj (List.remove_assoc "seq" fields)))
        | _ -> Some (Obs_json.Str line))
      lines
  in
  let check _ p =
    let app, machine, design, h = campaign_fixture p in
    let plan, retry = transient_faults h in
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
      (* A worker in this domain; with [kill], shard [h mod shards] dies
         after [cut] coordinates on its first launch, torn mid-write. *)
      let launch ~shard ~journal ~resume =
        let keep params rep = Shd.owns shard ~params ~rep in
        let own = List.length (Shd.coordinates shard design) in
        let killed =
          kill && (not resume) && shard.Shd.sh_index = h mod shards && own >= 2
        in
        let limit = if killed then Some (1 + (h mod (own - 1))) else None in
        ignore
          (Camp.run_journaled ~plan ~retry ~keep ?limit ~journal ~resume app
             machine design);
        if killed then tear_trailing_line journal;
        Shd.Returned
      in
      let metrics = Obs_metrics.create () in
      let events = Obs_events.create ~ts:false () in
      match
        Shd.coordinate ~metrics ~events ~header ~design ~shards ~journal
          ~timeout_s:infinity ~max_restarts:1 launch
      with
      | Error e -> Error e
      | Ok mg ->
        let ic = open_in_bin journal in
        let bytes = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Ok (mg, bytes, Obs_metrics.snapshot metrics, Obs_events.lines events)
    in
    let check_variant label = function
      | Error e -> Fail (Printf.sprintf "%s: coordinator failed: %s" label e)
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
            let base = unsupervised (Obs_events.lines base_events) in
            let merged = unsupervised lines in
            let nb = List.length base in
            if
              compare (List.filteri (fun i _ -> i < nb) merged) base <> 0
              || List.length merged <> nb + 1
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
  let check _ p =
    let app, machine, design, h = campaign_fixture p in
    let plan, retry = transient_faults h in
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

(* -- suites ---------------------------------------------------------------- *)

let all =
  [
    taint_soundness;
    printer_roundtrip;
    validator_interp;
    tripcount;
    obs_invariance;
    taint_vs_plain;
    compile_identity;
    coverage_consistency;
    campaign_identity;
    campaign_recovery;
    par_identity;
    shard_identity;
    serve_identity;
  ]

let check ?(config = interp_config) o p =
  match o.check config p with
  | v -> v
  | exception exn ->
    Fail (Printf.sprintf "oracle raised %s" (Printexc.to_string exn))
