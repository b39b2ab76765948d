(** Shared infrastructure for the experiment reproductions: the analysis
    runs (memoised), selective-instrumentation sets, experiment designs,
    and table printing. *)

let machine = Mpi_sim.Machine.skylake_cluster

(* -- memoised taint analyses ---------------------------------------------- *)

let lulesh_analysis =
  lazy
    (Perf_taint.Pipeline.analyze ~world:Apps.Lulesh.taint_world
       Apps.Lulesh.program ~args:Apps.Lulesh.taint_args)

let milc_analysis =
  lazy
    (Perf_taint.Pipeline.analyze ~world:Apps.Milc.taint_world
       Apps.Milc.program ~args:Apps.Milc.taint_args)

let app name = Option.get (Apps.Registry.find name)
let milc_aliases = (app "milc").Apps.Registry.aliases

(* Taint-derived instrumentation selections over every parameter. *)
let lulesh_selective =
  lazy
    (Perf_taint.Pipeline.selection (Lazy.force lulesh_analysis)
       ~model_params:Apps.Lulesh.all_params)

let milc_selective =
  lazy
    (Perf_taint.Pipeline.selection (Lazy.force milc_analysis)
       ~model_params:Apps.Milc.all_params)

(* -- experiment designs ---------------------------------------------------- *)

(** A measured app's campaign design from the workflow
    ({!Perf_taint.Study.design}): the app table's grid — the paper's 5x5
    grid with ranks-per-node pinned to 8, so that hardware contention
    stays constant across the design (the paper notes models are
    hardware-independent only at such saturation levels) — with 5
    repetitions. *)
let design ?(sigma = Measure.Experiment.default_design.sigma) ?seed ~mode name
    =
  { (Perf_taint.Study.design ?seed (app name) mode) with
    Measure.Experiment.sigma }

let lulesh_design ~mode = design ~mode "lulesh"
let milc_design ~mode = design ~mode "milc"

(* -- machine-readable output ------------------------------------------------ *)

(** Write an experiment's headline numbers as [BENCH_<name>.json] in the
    working directory, next to the human-readable log, so CI can archive
    and diff them without scraping text.  The journal's JSON writer is
    reused — floats are printed with ["%.17g"] and survive a round trip
    bit-for-bit — and the file is replaced atomically. *)
let emit_json ~name fields =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let v =
    Obs_json.Obj (("experiment", Obs_json.Str name) :: fields)
  in
  Obs_json.write_lines file [ Obs_json.to_string v ];
  Fmt.pr "    machine-readable: %s@." file

(* -- formatting ------------------------------------------------------------ *)

let section title =
  Fmt.pr "@.=== %s ===@." title

let note fmt = Fmt.pr ("    " ^^ fmt ^^ "@.")

let paper_vs fmt = Fmt.pr ("  paper:    " ^^ fmt ^^ "@.")
let measured fmt = Fmt.pr ("  measured: " ^^ fmt ^^ "@.")

let geomean = function
  | [] -> 0.
  | xs ->
    exp (List.fold_left (fun a x -> a +. Float.log (Float.max 1e-12 x)) 0. xs
         /. float_of_int (List.length xs))

(** Run an experiment design and return the per-kernel datasets it
    measured. *)
let run_and_collect app design ~params ~kernels =
  Perf_taint.Study.datasets
    (Measure.Experiment.run_design app machine design)
    ~params kernels
