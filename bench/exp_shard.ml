(** Extension experiment: what distributed sharding costs and what it
    buys.  The same faulty campaign is executed serially in one process
    and split over in-process shard "workers" (each journaling its
    subset, then merged) — the merge result is structurally compared
    against the serial reference before any time is reported, the same
    pay-for-wall-clock-never-for-answers policy as the parallel
    experiment.  The reported overhead is the full journal round trip:
    per-shard journal writes, parse-back, header validation, dedup, and
    design-order reassembly. *)

module Exp = Measure.Experiment
module Camp = Measure.Campaign
module Shard = Measure.Shard
module Fault = Measure.Fault
module Instr = Measure.Instrument
module J = Obs_json

let machine = Mpi_sim.Machine.skylake_cluster
let shard_axis = [ 1; 2; 4; 8 ]

let best_of n f =
  let r = ref None and best = ref infinity in
  for _ = 1 to n do
    let v, dt = Obs_clock.with_timer f in
    if dt < !best then best := dt;
    r := Some v
  done;
  (Option.get !r, !best)

let run () =
  Exp_common.section "shard: journal write + merge overhead, identity";
  let design = Exp_common.lulesh_design ~mode:Instr.Full in
  let app = Apps.Lulesh_spec.app in
  let retry = { Camp.default_retry with Camp.rt_max_attempts = 3 } in
  let plan =
    { Fault.none with
      Fault.fp_seed = 11; fp_crash = 0.05; fp_hang = 0.03; fp_persistent = 0.;
      fp_transient_attempts = 2 }
  in
  let header = Camp.header_line ~app_name:app.Measure.Spec.aname ~plan ~retry design in
  let reference, t1 =
    best_of 3 (fun () -> Camp.run ~plan ~retry app machine design)
  in
  let base = Filename.temp_file "bench-shard" ".jsonl" in
  let mismatches = ref 0 in
  let sharded shards =
    let paths = List.init shards (Shard.journal_path ~journal:base) in
    let round () =
      List.iteri
        (fun k path ->
          if Sys.file_exists path then Sys.remove path;
          let t = { Shard.sh_index = k; sh_count = shards } in
          ignore
            (Camp.run_journaled ~plan ~retry
               ~keep:(fun params rep -> Shard.owns t ~params ~rep)
               ~journal:path ~resume:false app machine design))
        paths;
      match
        Shard.merge_journals ~mode:design.Exp.mode ~expected_header:header
          ~design paths
      with
      | Error e -> failwith e
      | Ok mg -> mg.Shard.mg_records
    in
    let records, t = best_of 3 round in
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
    (records, t)
  in
  let rows =
    List.map
      (fun m ->
        let records, t = sharded m in
        let ok = compare records reference.Camp.cp_records = 0 in
        if not ok then incr mismatches;
        let overhead = (t -. t1) /. t1 *. 100. in
        Fmt.pr
          "  shards=%d  %9.6f s  journal+merge overhead %6.2f%%%s@." m t
          overhead
          (if ok then "" else "  << NOT BIT-IDENTICAL TO SERIAL");
        J.Obj
          [
            ("shards", J.Int m);
            ("seconds", J.Float t);
            ("overhead_pct", J.Float overhead);
            ("identical", J.Bool ok);
          ])
      shard_axis
  in
  (try Sys.remove base with Sys_error _ -> ());
  Exp_common.note "serial reference: %.6f s, %d records" t1
    (List.length reference.Camp.cp_records);
  Exp_common.emit_json ~name:"shard"
    [
      ("serial_seconds", J.Float t1);
      ("records", J.Int (List.length reference.Camp.cp_records));
      ("runs", J.List rows);
    ];
  if !mismatches > 0 then begin
    Fmt.epr "shard: %d merge(s) were not bit-identical to serial@."
      !mismatches;
    exit 1
  end
