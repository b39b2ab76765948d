(** The experiment harness: one sub-command per table / figure / section
    of the paper's evaluation.  With no argument, every experiment runs in
    paper order and prints paper-reported versus measured results
    (recorded in EXPERIMENTS.md). *)

let experiments =
  [
    ("table2", "Table 2: two-phase function/loop pruning", Exp_table2.run);
    ("table3", "Table 3: per-parameter coverage", Exp_table3.run);
    ("deps", "A2: multiplicative vs additive dependencies", Exp_deps.run);
    ("fig3", "Figure 3: LULESH instrumentation overhead", Exp_fig3.run);
    ("fig4", "Figure 4: MILC instrumentation overhead", Exp_fig4.run);
    ("cost", "A3: core-hour cost of experiments", Exp_cost.run);
    ("quality", "B1: noise resilience", Exp_quality.run);
    ("noise", "Ablation: model correctness vs noise level", Exp_noise.run);
    ("intrusion", "B2: instrumentation intrusion", Exp_intrusion.run);
    ("fig5", "Figure 5 / C1: contention detection", Exp_fig5.run);
    ("c2", "C2: experiment-design validation", Exp_c2.run);
    ("ablation", "Ablations: control-flow taint / library DB / static phase", Exp_ablation.run);
    ("scaling", "Extension: scalability-bug hunt", Exp_scaling.run);
    ("minicg", "Appendix: third application (miniCG) end to end", Exp_minicg.run);
    ("catalog", "Model catalog: every fitted hybrid model", Exp_catalog.run);
    ("micro", "bechamel microbenchmarks", Micro.run);
    ("policy", "policy overhead: taint vs plain, interp vs compiled",
     Micro.policy_speedup);
    ("search", "model search: cost per candidate, size-3 kernel ratio",
     Micro.search_kernel);
    ("resilience", "campaign executor overhead and retry cost",
     Micro.resilience);
    ("parallel", "domain-pool speedup: campaign / search / fuzz at 1-8 jobs",
     Exp_parallel.run);
    ("shard", "distributed sharding: journal write + merge overhead, identity",
     Exp_shard.run);
    ("serve", "model serving: catalog hit latency vs cold fits, identity",
     Exp_serve.run);
  ]

let usage () =
  Fmt.pr "usage: bench/main.exe [experiment | --check-baseline [DIR]]@.@.experiments:@.";
  List.iter (fun (name, doc, _) -> Fmt.pr "  %-10s %s@." name doc) experiments;
  Fmt.pr "  %-10s %s@." "all" "run everything (default)";
  Fmt.pr "  %-10s %s@." "--check-baseline"
    "compare BENCH_*.json in the cwd against committed baselines \
     (default dir: bench/baselines); nonzero exit on regression"

(* The regression gate: every baseline BENCH_*.json under [dir] must
   match the same-named result file in the cwd within its tolerance.
   Run the corresponding experiments first to produce the actuals. *)
let check_baseline dir =
  match Measure.Bench_report.check_dir ~dir ~actual_dir:"." () with
  | Error msg ->
    Fmt.epr "check-baseline: %s@." msg;
    exit 2
  | Ok checks ->
    Fmt.pr "%a@." Measure.Bench_report.pp_checks checks;
    if not (Measure.Bench_report.passed checks) then exit 1

let () =
  match Sys.argv with
  | [| _ |] | [| _; "all" |] ->
    List.iter (fun (_, _, run) -> run ()) experiments
  | [| _; "--check-baseline" |] -> check_baseline "bench/baselines"
  | [| _; "--check-baseline"; dir |] -> check_baseline dir
  | [| _; name |] -> (
    match List.find_opt (fun (n, _, _) -> n = name) experiments with
    | Some (_, _, run) -> run ()
    | None ->
      (match name with "-h" | "--help" -> () | n -> Fmt.epr "unknown experiment %s@." n);
      usage ())
  | _ -> usage ()
