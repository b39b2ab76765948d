(** Ablation studies of the design choices DESIGN.md calls out:

    1. Control-flow tainting off (plain DFSan, no extension): which
       dependencies disappear?  The paper's Section 5.2 argues the
       extension is necessary for real applications — the LULESH region
       loops are the canonical example.
    2. The MPI library database off: communication routines lose their
       implicit dependency on p, so every comm model silently degrades to
       constant.
    3. The static phase off: how much work the dynamic phase would have to
       shoulder alone (every helper would need a tainted-run visit to be
       pruned). *)

module SSet = Ir.Cfg.SSet
module SMap = Ir.Cfg.SMap

let analyze ?(control_flow = true) program args world =
  let config =
    { Interp.Machine.default_config with control_flow_taint = control_flow }
  in
  Perf_taint.Pipeline.analyze ~config ~world program ~args

let dep_diff (full : Perf_taint.Pipeline.t) (ablated : Perf_taint.Pipeline.t) =
  SMap.fold
    (fun fname (fd : Perf_taint.Deps.func_deps) acc ->
      let ab = Perf_taint.Deps.params ablated.deps fname in
      let missed = SSet.diff fd.Perf_taint.Deps.fd_params ab in
      if SSet.is_empty missed then acc else (fname, missed) :: acc)
    full.deps []
  |> List.sort compare

let control_flow_ablation () =
  Exp_common.note "-- ablation 1: control-flow tainting off --";
  List.map
    (fun (name, program, args, world) ->
      let full = analyze program args world in
      let ablated = analyze ~control_flow:false program args world in
      let missed = dep_diff full ablated in
      Exp_common.measured
        "%s: without control-flow tainting, %d functions lose dependencies:"
        name (List.length missed);
      List.iter
        (fun (fname, params) ->
          Fmt.pr "    %-36s loses {%s}@." fname
            (String.concat "," (SSet.elements params)))
        missed;
      (name, List.length missed))
    [ ("lulesh", Apps.Lulesh.program, Apps.Lulesh.taint_args,
       Apps.Lulesh.taint_world);
      ("milc", Apps.Milc.program, Apps.Milc.taint_args, Apps.Milc.taint_world)
    ]

let library_db_ablation () =
  Exp_common.note "-- ablation 2: MPI library database off --";
  let t = Lazy.force Exp_common.lulesh_analysis in
  let affected =
    SMap.fold
      (fun fname (fd : Perf_taint.Deps.func_deps) acc ->
        let only_comm =
          SSet.diff fd.Perf_taint.Deps.fd_comm_params
            fd.Perf_taint.Deps.fd_loop_params
        in
        if SSet.is_empty only_comm then acc
        else (fname, only_comm) :: acc)
      t.deps []
    |> List.sort compare
  in
  Exp_common.measured
    "lulesh: without the library database, %d functions would lose their \
     communication dependencies (and be misclassified constant):"
    (List.length affected);
  List.iter
    (fun (fname, params) ->
      Fmt.pr "    %-36s loses {%s}@." fname
        (String.concat "," (SSet.elements params)))
    affected;
  List.length affected

let static_phase_ablation () =
  Exp_common.note "-- ablation 3: static phase off --";
  List.map
    (fun (name, t) ->
      let t : Perf_taint.Pipeline.t = Lazy.force t in
      let statically_pruned =
        t.static.Static_an.Classify.pruned_functions
      in
      (* Without the static phase, only *executed* constant functions can
         be pruned (by the dynamic phase); the rest must be conservatively
         instrumented. *)
      let executed_constant =
        List.filter
          (fun (f : Ir.Types.func) ->
            Static_an.Classify.is_pruned t.static f.Ir.Types.fname
            && Perf_taint.Pipeline.executed t f.Ir.Types.fname)
          t.program.Ir.Types.funcs
        |> List.length
      in
      Exp_common.measured
        "%s: static phase prunes %d functions at zero runtime cost; the \
         dynamic phase alone could only prune the %d of them that the \
         taint run happens to execute"
        name statically_pruned executed_constant;
      (name, statically_pruned, executed_constant))
    [ ("lulesh", Exp_common.lulesh_analysis); ("milc", Exp_common.milc_analysis) ]

let run () =
  Exp_common.section "Ablations: control-flow taint, library database, static phase";
  let cf = control_flow_ablation () in
  let db_affected = library_db_ablation () in
  let static = static_phase_ablation () in
  let module J = Obs_json in
  Exp_common.emit_json ~name:"ablation"
    [
      ( "control_flow_losses",
        J.List
          (List.map
             (fun (name, n) ->
               J.Obj [ ("app", J.Str name); ("functions_losing_deps", J.Int n) ])
             cf) );
      ("library_db_affected", J.Int db_affected);
      ( "static_phase",
        J.List
          (List.map
             (fun (name, pruned, executed) ->
               J.Obj
                 [
                   ("app", J.Str name);
                   ("statically_pruned", J.Int pruned);
                   ("dynamic_only_prunable", J.Int executed);
                 ])
             static) );
    ]
