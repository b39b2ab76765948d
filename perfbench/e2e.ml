(* End-to-end benchmark driver for perf-taint.

   Three workloads, each a fixed input set generated from --seed and
   replayed in passes:

   - model-e2e    the full hybrid-modeling workflow (parse, taint run,
                  measurement campaign, tainted model search, contention
                  and grid validation) over lulesh, milc and minicg;
   - taint-sweep  tainted runs plus plain replays over growing problem
                  sizes and rank counts, then the C2 design check;
   - serve-mix    a closed loop of one client against the model-serving
                  daemon: hot hits, cold fits under faults, invalidations,
                  duplicate-key batches and a warm restart.

   Every layer call is made from here, in-process and serially (one
   domain, the CLI's --jobs 1), and timed from outside; with --trace 0
   every time is calibrated against a reference kernel (see host-speed
   calibration below).  With --trace 1
   the same calls are wrapped in Obs_trace spans named after the module
   called, the public ?metrics registries are attached, and the per-layer
   self times and work counters are reported instead of the end-to-end
   metrics.  The last stdout line is one JSON result object.

   Usage: e2e.exe --workload NAME --seed N --seconds S --trace 0|1
                  [--golden FILE] [--out DIR] *)

module J = Measure.Jsonio
module P = Perf_taint.Pipeline
module ISet = Measure.Instrument.SSet

let default_seed = 42

(* ---- failures --------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let check_failed = ref false
let problems = ref []

let problem fmt =
  Printf.ksprintf
    (fun m -> if List.length !problems < 20 then problems := m :: !problems)
    fmt

(* A failed output check that no single operation owns. *)
let fail_check fmt =
  Printf.ksprintf
    (fun m ->
      check_failed := true;
      problem "%s" m)
    fmt

(* ---- host-speed calibration ------------------------------------------- *)

(* The reference host is a shared virtual machine whose speed drifts:
   it switches between modes up to 1.6x apart, for seconds at a time, and
   whole runs can sit in the slow one.  With --trace 0 the driver
   therefore interleaves a fixed reference kernel with the workload:
   before and after each pass and set-up, and between operations at least
   every [calib_every] seconds, never inside a timed operation.  Every
   measured interval is scaled by [calib_ref] over the mean kernel time of
   the two samples around it, so times read as seconds at a fixed host
   speed.  The kernel is the driver's own code, so a change to perf-taint
   cannot move it.  The slow mode slows streaming memory writes and
   allocation far more than cache-resident lookups, so the kernel does, in
   about equal parts: writes and reads through a 2 MiB buffer outside the
   OCaml heap, short-lived allocation, and a float loop.  The minor heap
   is emptied first, so the kernel's minor collections promote none of
   the workload's data. *)

let calib_ref = 0.002
let calib_every = 0.2
let calib_buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 18)
let calib_floats = Array.init 4096 (fun i -> float_of_int (i land 63) +. 0.5)

let calib_kernel () =
  let a = calib_buf in
  let n = Bigarray.Array1.dim a and s = ref 0 in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set a i i
  done;
  for i = 0 to n - 1 do
    s := !s + Bigarray.Array1.unsafe_get a i
  done;
  let acc = ref 0. in
  for r = 1 to 500 do
    let l = List.init 64 (fun i -> float_of_int (i + r)) in
    acc := List.fold_left ( +. ) !acc (List.map (fun x -> x *. 1.5) l)
  done;
  let f = calib_floats in
  for _ = 1 to 70 do
    for i = 0 to 4095 do
      acc := !acc +. (f.(i) *. f.(4095 - i))
    done
  done;
  !s + int_of_float !acc

type sample = { c_start : int64; c_end : int64; c_kernel : float }

(* Samples of the pass or set-up in progress, newest first. *)
let samples : sample list ref = ref []
let calibrating = ref false
let in_op = ref false
let last_calib = ref 0L

(* One sample: the fastest of three kernel runs. *)
let calibrate () =
  let c_start = Obs_clock.now_ns () in
  Gc.minor ();
  let time () =
    let t0 = Obs_clock.now_ns () in
    ignore (Sys.opaque_identity (calib_kernel ()));
    Obs_clock.seconds_since t0
  in
  let k = Float.min (time ()) (Float.min (time ()) (time ())) in
  let c_end = Obs_clock.now_ns () in
  samples := { c_start; c_end; c_kernel = k } :: !samples;
  last_calib := c_end

let maybe_calibrate () =
  if
    !calibrating && (not !in_op)
    && Obs_clock.seconds_since !last_calib >= calib_every
  then calibrate ()

let seconds (t0, t1) = Int64.to_float (Int64.sub t1 t0) *. 1e-9

(* The calibrated length of an interval (t0, t1) of clock readings taken
   between two of the [samples]; the raw length without samples. *)
let calibrated samples =
  let a = Array.of_list (List.rev samples) in
  let n = Array.length a in
  fun (t0, t1) ->
    if n = 0 then seconds (t0, t1)
    else begin
      let j = ref 0 in
      while !j + 1 < n && a.(!j + 1).c_end <= t0 do
        incr j
      done;
      let k = (a.(!j).c_kernel +. a.(min (!j + 1) (n - 1)).c_kernel) /. 2. in
      seconds (t0, t1) *. calib_ref /. k
    end

(* The intervals between consecutive samples: the workload's time. *)
let gaps samples =
  let rec go = function
    | a :: (b :: _ as rest) -> (a.c_end, b.c_start) :: go rest
    | _ -> []
  in
  go (List.rev samples)

(* ---- spans, counters and operations ----------------------------------- *)

let sink = ref Obs_trace.disabled

(* The registry of the pass in progress.  Library calls only receive it
   in traced passes ([metrics ()]); the driver's own counters always
   land here. *)
let reg = ref (Obs_metrics.create ())
let attach = ref false
let metrics () = if !attach then Some !reg else None
let add name n = Obs_metrics.add (Obs_metrics.counter !reg name) n
let addf name x = Obs_metrics.add_gauge (Obs_metrics.gauge !reg name) x

(* Run [f] inside a span of the given layer; [time] and [words]
   accumulate its seconds and minor-heap words into registry gauges. *)
let span ?time ?words ~layer name f =
  let w0 = Gc.minor_words () in
  let t0 = Obs_clock.now_ns () in
  let finish () =
    Option.iter (fun g -> addf g (Obs_clock.seconds_since t0)) time;
    Option.iter (fun g -> addf g (Gc.minor_words () -. w0)) words
  in
  let r =
    Fun.protect ~finally:finish (fun () ->
        Obs_trace.with_span !sink ~cat:layer name f)
  in
  maybe_calibrate ();
  r

(* Pipeline.analyze spans three layers.  Its span belongs to [core]
   (post-processing); the static and taint-run phases it reports are
   attached to the span end as [split.<layer>] seconds, which the
   self-time accounting moves to those layers. *)
let analyze ~world program ~args =
  let name = "Perf_taint.Pipeline.analyze" in
  let w0 = Gc.minor_words () in
  Obs_trace.span_begin !sink ~cat:"core" name;
  match P.analyze ~world program ~args with
  | exception e ->
    Obs_trace.span_end !sink name;
    raise e
  | a ->
    let ph = P.phases a in
    let static = List.assoc "static" ph and run = List.assoc "taint_run" ph in
    Obs_trace.span_end !sink
      ~args:
        [ ("split.static", Obs_trace.Float static);
          ("split.interp", Obs_trace.Float run) ]
      name;
    addf "static.classify_s" static;
    addf "interp.taint_run_s" run;
    addf "taint.minor_words" (Gc.minor_words () -. w0);
    List.iter
      (fun c ->
        Option.iter (add c) (Obs_metrics.find_counter a.P.snapshot c))
      [ "interp.steps"; "taint.unions"; "taint.dedup_hits"; "taint.labels" ];
    a

(* The start and end clock readings of the operations of the pass in
   progress, newest first. *)
let lat = ref []

(* One timed operation.  It fails when it raises or when [check] returns
   a message about its result. *)
let op ?(check = fun _ -> None) f =
  incr attempted;
  in_op := true;
  let t0 = Obs_clock.now_ns () in
  let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  lat := (t0, Obs_clock.now_ns ()) :: !lat;
  in_op := false;
  maybe_calibrate ();
  match r with
  | Ok v ->
    (match check v with
    | None -> ()
    | Some m ->
      incr failed;
      problem "%s" m);
    Some v
  | Error m ->
    incr failed;
    problem "raised %s" m;
    None

(* ---- golden digests --------------------------------------------------- *)

(* Lines "<workload> <seed|any> <group> <md5>".  A group is one app of
   model-e2e or one configuration of taint-sweep. *)
let golden : (string * string * string, string) Hashtbl.t = Hashtbl.create 64

let load_golden path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  try
    while true do
      match String.split_on_char ' ' (String.trim (input_line ic)) with
      | [ w; s; g; d ] when w.[0] <> '#' -> Hashtbl.replace golden (w, s, g) d
      | _ -> ()
    done
  with End_of_file -> ()

(* The digests of the first pass; later passes must repeat them. *)
let first_digests : (string, string) Hashtbl.t = Hashtbl.create 64

(* Compare one group's output with the golden digest (keyed by seed, or
   by "any" for seed-independent outputs) and with the first pass.
   Returns whether it matched. *)
let digest_group ~workload ~seed group lines =
  let d = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
  let ok = ref true in
  (match Hashtbl.find_opt first_digests group with
  | None ->
    Hashtbl.add first_digests group d;
    Printf.printf "digest %s %d %s %s\n" workload seed group d
  | Some d0 when d0 <> d ->
    ok := false;
    problem "%s: output of %s differs between passes" workload group
  | Some _ -> ());
  let expected =
    match Hashtbl.find_opt golden (workload, "any", group) with
    | Some g -> Some g
    | None -> Hashtbl.find_opt golden (workload, string_of_int seed, group)
  in
  (match expected with
  | Some g when g <> d ->
    ok := false;
    problem "%s: %s does not match its golden digest" workload group
  | _ -> ());
  !ok

(* ---- model-e2e -------------------------------------------------------- *)

let machine = Mpi_sim.Machine.skylake_cluster

type app_case = {
  ac_name : string;
  ac_program : Ir.Types.program;
  ac_world : Mpi_sim.Runtime.world;
  ac_args : Ir.Types.value list;
  ac_select : string list;  (** model parameters of the selection *)
  ac_fit : string list;  (** model parameters on the grid *)
  ac_aliases : (string * string list) list;
  ac_spec : Measure.Spec.app;
  ac_grid : (string * float list) list;
  ac_config : Model.Search.config;
  ac_size_axis : string * float;  (** fixed size of the contention sweep *)
}

(* The configuration `perf-taint model` uses per app, except that
   minicg's grid is its own p x n grid. *)
let cases =
  [
    {
      ac_name = "lulesh";
      ac_program = Apps.Lulesh.program;
      ac_world = Apps.Lulesh.taint_world;
      ac_args = Apps.Lulesh.taint_args;
      ac_select = Apps.Lulesh.model_params;
      ac_fit = Apps.Lulesh.model_params;
      ac_aliases = [];
      ac_spec = Apps.Lulesh_spec.app;
      ac_grid =
        [ ("p", Apps.Lulesh_spec.p_values);
          ("size", Apps.Lulesh_spec.size_values); ("r", [ 8. ]) ];
      ac_config = Model.Search.default_config;
      ac_size_axis = ("size", 30.);
    };
    {
      ac_name = "milc";
      ac_program = Apps.Milc.program;
      ac_world = Apps.Milc.taint_world;
      ac_args = Apps.Milc.taint_args;
      ac_select = Apps.Milc.model_params;
      ac_fit = Apps.Milc.model_params;
      ac_aliases = [ ("size", [ "nx"; "ny"; "nz"; "nt" ]) ];
      ac_spec = Apps.Milc_spec.app;
      ac_grid =
        [ ("p", Apps.Milc_spec.p_values); ("size", Apps.Milc_spec.size_values);
          ("r", [ 8. ]) ];
      ac_config = Model.Search.extended_config;
      ac_size_axis = ("size", 30.);
    };
    {
      ac_name = "minicg";
      ac_program = Apps.Minicg.program;
      ac_world = Apps.Minicg.taint_world;
      ac_args = Apps.Minicg.taint_args;
      ac_select = Apps.Minicg.model_params;
      ac_fit = [ "p"; "n" ];
      ac_aliases = [];
      ac_spec = Apps.Minicg_spec.app;
      ac_grid =
        [ ("p", Apps.Minicg_spec.p_values); ("n", Apps.Minicg_spec.n_values);
          ("r", [ 8. ]) ];
      ac_config = Model.Search.default_config;
      ac_size_axis = ("n", 1.0e6);
    };
  ]

let ranks_per_node = [ 2.; 4.; 6.; 8.; 10.; 12.; 14.; 16.; 18. ]

(* A tainted fit may only use parameters its constraints allow. *)
let check_fit fname (c : Model.Search.constraints) (r : Model.Search.result) =
  let used = Model.Expr.parameters r.Model.Search.model in
  match c.Model.Search.allowed with
  | Some allowed when not (List.for_all (fun p -> List.mem p allowed) used) ->
    Some
      (Printf.sprintf "%s: model %s uses a parameter taint rules out" fname
         (Model.Expr.to_string r.model))
  | _ when Float.is_nan r.error ->
    Some (Printf.sprintf "%s: cross-validated error is NaN" fname)
  | _ -> None

let model_app ~seed c text =
  let program =
    span ~layer:"ir" ~time:"ir.parse_s" "Ir.Parser.parse" (fun () ->
        Ir.Parser.parse ~name:c.ac_name text)
  in
  add "ir.parse_bytes" (String.length text);
  let a = analyze ~world:c.ac_world program ~args:c.ac_args in
  let selective =
    span ~layer:"core" "Perf_taint.Pipeline.relevant_functions" (fun () ->
        ISet.of_list
          (P.relevant_functions a ~model_params:c.ac_select
          @ Ir.Cfg.SSet.elements (P.mpi_routines_used a)))
  in
  let design =
    { Measure.Experiment.grid = c.ac_grid; reps = 5;
      mode = Measure.Instrument.Selective selective; sigma = 0.02; seed }
  in
  let run_design design =
    span ~layer:"measure" ~time:"measure.campaign_s"
      "Measure.Experiment.run_design" (fun () ->
        Measure.Experiment.run_design ?metrics:(metrics ()) c.ac_spec machine
          design)
  in
  let runs = run_design design in
  let config = { c.ac_config with Model.Search.metrics = metrics () } in
  let ops0 = !attempted in
  let fit fname =
    let data =
      span ~layer:"measure" "Measure.Experiment.kernel_dataset" (fun () ->
          Measure.Experiment.kernel_dataset runs ~params:c.ac_fit
            ~kernel:fname)
    in
    if data.Model.Dataset.points = [] then
      Printf.sprintf "  %-36s (not measured)" fname
    else
      let cons =
        span ~layer:"core" "Perf_taint.Modeling.constraints_aliased"
          (fun () ->
            Perf_taint.Modeling.constraints_aliased a
              Perf_taint.Modeling.Tainted ~model_params:c.ac_fit
              ~aliases:c.ac_aliases fname)
      in
      let search () =
        span ~layer:"model" ~time:"model.search_s" ~words:"model.minor_words"
          "Model.Search.multi" (fun () ->
            Model.Search.multi ~config ~constraints:cons data)
      in
      match op ~check:(check_fit fname cons) search with
      | None -> Printf.sprintf "  %-36s (failed)" fname
      | Some r ->
        add "model.fits" 1;
        add "model.hypotheses_tried" r.Model.Search.hypotheses_tried;
        Printf.sprintf "  %-36s %s  (SMAPE %.1f%%)" fname
          (Model.Expr.to_string r.Model.Search.model)
          r.Model.Search.error
  in
  let lines = List.map fit (ISet.elements selective) in
  let fits = !attempted - ops0 in
  (* black-box contention check over a ranks-per-node sweep *)
  let cdesign =
    { design with
      Measure.Experiment.grid =
        [ ("p", [ 64. ]); (fst c.ac_size_axis, [ snd c.ac_size_axis ]);
          ("r", ranks_per_node) ] }
  in
  let cruns = run_design cdesign in
  let datasets =
    span ~layer:"measure" "Measure.Experiment.kernel_dataset" (fun () ->
        List.filter_map
          (fun k ->
            let d =
              Measure.Experiment.kernel_dataset cruns ~params:[ "r" ] ~kernel:k
            in
            if d.Model.Dataset.points = [] then None else Some (k, d))
          (ISet.elements selective))
  in
  let findings =
    span ~layer:"core" ~time:"core.validate_s"
      "Perf_taint.Validation.detect_contention" (fun () ->
        Perf_taint.Validation.detect_contention a datasets)
  in
  add "core.validate_evaluated" (List.length datasets);
  add "core.contention_findings" (List.length findings);
  let gaps =
    span ~layer:"core" ~time:"core.validate_s"
      "Perf_taint.Validation.grid_gaps" (fun () ->
        Perf_taint.Validation.grid_gaps ~design runs)
  in
  if not (Perf_taint.Validation.complete_grid gaps) then
    fail_check "model-e2e: %s campaign left grid gaps" c.ac_name;
  let contention =
    List.map
      (fun (f : Perf_taint.Validation.contention_finding) ->
        Printf.sprintf "  %-36s %s" f.cf_func
          (Model.Expr.to_string f.cf_model))
      findings
  in
  (lines, contention, fits)

let model_e2e_setup seed =
  (* input generation: the printed PIR of each app *)
  let inputs =
    List.map (fun c -> (c, Ir.Pp.program_to_string c.ac_program)) cases
  in
  fun () ->
    List.iter
      (fun (c, text) ->
        let lines, contention, fits = model_app ~seed c text in
        if not (digest_group ~workload:"model-e2e" ~seed c.ac_name lines) then
          (* the golden digest covers this app's fits as a whole *)
          failed := !failed + fits;
        if
          not
            (digest_group ~workload:"model-e2e" ~seed
               (c.ac_name ^ ".contention") contention)
        then fail_check "model-e2e: %s contention findings changed" c.ac_name)
      inputs

(* ---- taint-sweep ------------------------------------------------------ *)

type tconf = {
  tc_id : string;
  tc_app : string;
  tc_program : Ir.Types.program;
  tc_world : Mpi_sim.Runtime.world;
  tc_args : Ir.Types.value list;
  tc_model_params : string list;
}

let int_of_value = function Ir.Types.VInt i -> i | _ -> 0

(* Entry arguments by name, for the plain replay. *)
let replay_params tc =
  let entry = Ir.Types.find_func tc.tc_program tc.tc_program.Ir.Types.entry in
  ("p", float_of_int tc.tc_world.Mpi_sim.Runtime.ranks)
  :: List.map2
       (fun n v -> (n, float_of_int (int_of_value v)))
       entry.Ir.Types.fparams tc.tc_args

let with_arg args i v = List.mapi (fun j a -> if j = i then Ir.Types.VInt v else a) args

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let sweep_configs () =
  let parse name p =
    Ir.Parser.parse ~name (Ir.Pp.program_to_string p)
  in
  let lulesh = parse "lulesh" Apps.Lulesh.program in
  let milc = parse "milc" Apps.Milc.program in
  let minicg = parse "minicg" Apps.Minicg.program in
  let world ranks = { Mpi_sim.Runtime.ranks; rank = 0 } in
  List.map
    (fun (size, p) ->
      { tc_id = Printf.sprintf "lulesh-size%d-p%d" size p; tc_app = "lulesh";
        tc_program = lulesh; tc_world = world p;
        tc_args = with_arg Apps.Lulesh.taint_args 0 size;
        tc_model_params = Apps.Lulesh.model_params })
    [ (5, 8); (6, 8); (7, 27); (8, 27) ]
  @ List.map
      (fun p ->
        { tc_id = Printf.sprintf "milc-p%d" p; tc_app = "milc";
          tc_program = milc; tc_world = world p; tc_args = Apps.Milc.taint_args;
          tc_model_params = Apps.Milc.model_params })
      [ 4; 8; 16; 32 ]
  @ [ { tc_id = "minicg"; tc_app = "minicg"; tc_program = minicg;
        tc_world = Apps.Minicg.taint_world; tc_args = Apps.Minicg.taint_args;
        tc_model_params = Apps.Minicg.model_params } ]

let check_steps tc ((a : P.t), (r : Measure.Simulator.replay)) =
  if a.P.steps <> r.Measure.Simulator.rp_steps then
    Some
      (Printf.sprintf "%s: tainted run took %d steps, plain replay %d" tc.tc_id
         a.P.steps r.rp_steps)
  else None

let sweep_lines tc (a : P.t) =
  List.map
    (fun f ->
      Printf.sprintf "%s %s {%s}" f
        (P.status_name (P.status a ~model_params:tc.tc_model_params f))
        (String.concat ","
           (Ir.Cfg.SSet.elements (Perf_taint.Modeling.dep_set a f))))
    (List.sort compare (P.function_names a))

(* The seed orders the configurations within each app; the apps keep
   their order so the live heap at the largest run does not depend on
   the seed. *)
let taint_sweep_setup seed =
  let st = Random.State.make [| seed |] and all = sweep_configs () in
  let configs =
    List.concat_map
      (fun app -> shuffle st (List.filter (fun tc -> tc.tc_app = app) all))
      [ "lulesh"; "milc"; "minicg" ]
  in
  (* first-use lowering: one small plain run per program *)
  List.iter
    (fun id ->
      let tc = List.find (fun tc -> tc.tc_id = id) configs in
      ignore
        (Measure.Simulator.replay ~world:tc.tc_world tc.tc_program
           ~params:(replay_params tc)))
    [ "lulesh-size5-p8"; "milc-p4"; "minicg" ];
  fun () ->
    let milc = ref [] in
    List.iter
      (fun tc ->
        let run () =
          let a = analyze ~world:tc.tc_world tc.tc_program ~args:tc.tc_args in
          let r =
            span ~layer:"interp" ~time:"interp.replay_s"
              "Measure.Simulator.replay" (fun () ->
                Measure.Simulator.replay ~world:tc.tc_world tc.tc_program
                  ~params:(replay_params tc))
          in
          add "interp.replay_steps" r.Measure.Simulator.rp_steps;
          (a, r)
        in
        match op ~check:(check_steps tc) run with
        | None -> ()
        | Some (a, _) ->
          if tc.tc_app = "milc" then
            milc := (tc.tc_world.Mpi_sim.Runtime.ranks, a) :: !milc;
          if
            not
              (digest_group ~workload:"taint-sweep" ~seed tc.tc_id
                 (sweep_lines tc a))
          then incr failed)
      configs;
    let runs = List.map snd (List.sort (fun (p, _) (q, _) -> compare p q) !milc) in
    let findings =
      span ~layer:"core" ~time:"core.validate_s"
        "Perf_taint.Validation.validate_design" (fun () ->
          Perf_taint.Validation.validate_design
            ~model_params:Apps.Milc.model_params runs)
    in
    add "core.validate_evaluated" (List.length runs);
    add "core.design_findings" (List.length findings);
    let lines =
      List.map
        (fun (f : Perf_taint.Validation.design_finding) ->
          Printf.sprintf "%s %s {%s} %s" f.df_func f.df_block
            (String.concat "," f.df_params)
            (String.concat ","
               (List.map
                  (fun (_, b) -> Perf_taint.Validation.behavior_name b)
                  f.df_behaviors)))
        findings
    in
    if not (digest_group ~workload:"taint-sweep" ~seed "c2" lines) then
      fail_check "taint-sweep: C2 findings changed"

(* ---- serve-mix -------------------------------------------------------- *)

let out_dir = ref ".perfbench"
let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat !out_dir
      (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  Sys.mkdir dir 0o700;
  dir

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let serve_apps = [| "lulesh"; "milc"; "minicg" |]

let serve_coords = function
  | "lulesh" -> {|{"p":64,"size":35}|}
  | "milc" -> {|{"p":8,"size":128}|}
  | _ -> {|{"p":4,"n":1000000}|}

let fault_plan = "crash=0.05,hang=0.02,straggler=0.05"

(* Fits use each app's registry grid (5 x 5, 5 repetitions), the
   campaign CLI's default. *)
let spec_fields ~app ~seed ~faults =
  Printf.sprintf {|"app":"%s","seed":%d,"faults":"%s"|} app seed faults

let predict_line ~app ~seed ~faults =
  Printf.sprintf {|{"op":"predict",%s,"coords":%s}|}
    (spec_fields ~app ~seed ~faults) (serve_coords app)

let fit_line ~app ~seed ~faults =
  Printf.sprintf {|{"op":"fit",%s}|} (spec_fields ~app ~seed ~faults)

let hot_keys = 12
let capacity = 8

let hot_line ~seed k =
  predict_line ~app:serve_apps.(k mod 3) ~seed:((seed * 1000) + k) ~faults:""

let cold_line ~seed i =
  let app = serve_apps.(i mod 3) in
  let seed = (seed * 1000) + 100 + i in
  let faults = Printf.sprintf "%s,seed=%d" fault_plan seed in
  if i mod 2 = 0 then predict_line ~app ~seed ~faults
  else fit_line ~app ~seed ~faults

let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let uncached = replace_all ~sub:{|"cached":true|} ~by:{|"cached":false|}

let response_field resp name =
  match J.parse resp with
  | Ok j -> J.member name j
  | Error _ -> None

let response_ok = String.starts_with ~prefix:{|{"ok":true|}

(* The request script: one round trip per element.  Counts are fixed;
   the seed picks the hot keys, the cold specs and the order. *)
type step =
  | Hot of int
  | Cold of int
  | Dup of int * int  (** a batch [cold; hot; cold] *)
  | Invalidate
  | Restart

let n_hot = 800
let n_cold = 120
let n_dup = 30
let n_invalidate = 10

let script seed =
  let st = Random.State.make [| seed; 7 |] in
  let kinds =
    shuffle st
      (List.init n_hot (fun _ -> `Hot)
      @ List.init n_cold (fun _ -> `Cold)
      @ List.init n_dup (fun _ -> `Dup))
  in
  let next_cold = ref 0 in
  let cold () =
    let i = !next_cold in
    incr next_cold;
    i
  in
  let steps =
    List.map
      (function
        | `Hot -> Hot (Random.State.int st hot_keys)
        | `Cold -> Cold (cold ())
        | `Dup ->
          let i = cold () in
          Dup (i, Random.State.int st hot_keys))
      kinds
  in
  (* an invalidation every 1/(n+1) of the way, the restart half-way *)
  let len = List.length steps in
  let every = len / (n_invalidate + 1) in
  List.concat
    (List.mapi
       (fun j s ->
         if j = len / 2 then [ Restart; s ]
         else if j > 0 && j mod every = 0 && j / every <= n_invalidate then
           [ Invalidate; s ]
         else [ s ])
       steps)

type served = {
  sv_base : string;  (** the catalog index holding the fitted hot set *)
  sv_hot : string array;  (** the hot request lines *)
  sv_hit : string array;  (** their canonical hit answers *)
}

let open_server dir =
  match Serve.Catalog.open_ ~metrics:!reg ~capacity ~dir () with
  | Error e -> failwith e
  | Ok cat -> (cat, Serve.Server.create ~metrics:!reg ~catalog:cat ())

(* serve-mix set-up: open an empty catalog and fit the hot set cold,
   capturing each key's cold answer and its first hit answer. *)
let serve_prefit seed =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> remove_dir dir) @@ fun () ->
  let cat, server = open_server dir in
  let hot = Array.init hot_keys (hot_line ~seed) in
  let ask line = fst (Serve.Server.handle_line server line) in
  let cold = Array.map ask hot in
  let hit = Array.map ask hot in
  Array.iteri
    (fun k c ->
      if not (response_ok c) then fail_check "serve-mix: hot fit %d: %s" k c
      else if uncached hit.(k) <> c then
        fail_check "serve-mix: hit answer of hot key %d differs from its cold answer" k)
    cold;
  Serve.Catalog.close cat;
  { sv_base = read_file (Filename.concat dir "catalog.jsonl"); sv_hot = hot;
    sv_hit = hit }

(* In traced passes a cold key is fitted here, through the layers the
   daemon's cold path calls (Campaign.run, then the robust search), and
   inserted into the catalog; the daemon then answers it from the
   catalog.  This splits a miss into its measure, model and serve parts.
   The replica of the daemon's request resolution below must derive the
   same catalog key, which the response comparison against the
   untraced passes verifies. *)
let resolve (spec : Serve.Protocol.fit_spec) =
  let r = Option.get (Serve.Registry.find spec.fs_app) in
  let plan = Result.get_ok (Measure.Fault.of_spec spec.fs_faults) in
  let design =
    { Measure.Experiment.grid =
        Option.value ~default:r.Serve.Registry.r_grid spec.fs_grid;
      reps = spec.fs_reps; mode = Measure.Instrument.Full;
      sigma = spec.fs_sigma; seed = spec.fs_seed }
  in
  let retry =
    { Measure.Campaign.default_retry with
      Measure.Campaign.rt_max_attempts = spec.fs_retries;
      rt_backoff_s = spec.fs_backoff }
  in
  let key =
    Serve.Catalog.key ~app_name:r.r_app.Measure.Spec.aname
      ~program_text:(Serve.Registry.program_text r) ~design ~plan ~retry
  in
  (r, design, plan, retry, key)

let traced_fit cat line =
  match Serve.Protocol.request_of_line line with
  | Ok (Serve.Protocol.Predict (spec, _) | Serve.Protocol.Fit spec) ->
    let r, design, plan, retry, key = resolve spec in
    if not (Serve.Catalog.mem cat key) then begin
      add "serve.intercepted" 1;
      let app = r.Serve.Registry.r_app in
      let report =
        span ~layer:"measure" ~time:"measure.campaign_s" "Measure.Campaign.run"
          (fun () ->
            Measure.Campaign.run ?metrics:(metrics ()) ~plan ~retry app
              Serve.Registry.machine design)
      in
      addf "campaign.wasted_core_hours" report.cp_wasted_core_hours;
      let params =
        List.filter_map
          (fun (p, vs) -> if List.length vs > 1 then Some p else None)
          design.Measure.Experiment.grid
      in
      let dataset =
        span ~layer:"measure" "Measure.Experiment.total_dataset" (fun () ->
            Measure.Experiment.total_dataset report.cp_runs ~params)
      in
      let config =
        { Model.Search.default_config with Model.Search.metrics = metrics () }
      in
      let result, rejected =
        span ~layer:"model" ~time:"model.search_s" ~words:"model.minor_words"
          "Model.Search.multi_robust" (fun () ->
            Model.Search.multi_robust ~config dataset)
      in
      add "model.fits" 1;
      add "model.hypotheses_tried" result.hypotheses_tried;
      let entry =
        { Serve.Catalog.e_key = key; e_app = app.Measure.Spec.aname;
          e_model = result.model; e_error = result.error; e_rss = result.rss;
          e_hypotheses = result.hypotheses_tried; e_rejected = rejected;
          e_runs = List.length report.cp_runs;
          e_core_hours = Measure.Experiment.core_hours report.cp_runs;
          e_attempts = report.cp_attempts; e_retries = report.cp_retries;
          e_abandoned = report.cp_abandoned; e_faults = report.cp_faults;
          e_wasted_core_hours = report.cp_wasted_core_hours;
          e_backoff_core_hours = report.cp_backoff_core_hours }
      in
      span ~layer:"serve" "Serve.Catalog.insert" (fun () ->
          Serve.Catalog.insert cat entry)
    end
  | _ -> ()

(* Request-class latencies of serve-mix, for the per-layer table. *)
let serve_lat : (string, float list) Hashtbl.t = Hashtbl.create 8

let note_class cls =
  match !lat with
  | d :: _ ->
    Hashtbl.replace serve_lat cls
      (seconds d :: Option.value ~default:[] (Hashtbl.find_opt serve_lat cls))
  | [] -> ()

(* The responses of the first untraced pass, which every later pass
   (traced ones included) must repeat modulo the cached flag. *)
let reference_responses : string list option ref = ref None

let serve_mix_setup seed =
  let sv = serve_prefit seed in
  let steps = script seed in
  fun () ->
    let dir = fresh_dir () in
    Fun.protect ~finally:(fun () -> remove_dir dir) @@ fun () ->
    write_file (Filename.concat dir "catalog.jsonl") sv.sv_base;
    let reopen () =
      span ~layer:"serve" ~time:"serve.reopen_s" "Serve.Catalog.open_"
        (fun () -> open_server dir)
    in
    let state = ref None in
    let cat_server () = Option.get !state in
    let connect () =
      match op reopen with
      | Some s ->
        note_class "reopen";
        state := Some s
      | None -> failwith "serve-mix: catalog reopen failed"
    in
    connect ();
    let cold_answer : (string, string) Hashtbl.t = Hashtbl.create 256 in
    let cold_keys = ref [] and responses = ref [] in
    (* One round trip.  Each response must be ok; a hot answer must be
       its canonical hit answer byte for byte; a repeated cold line must
       repeat its cold answer modulo the cached flag. *)
    let round_trip cls lines =
      let cat, server = cat_server () in
      let check resps =
        List.fold_left2
          (fun acc line resp ->
            match acc with
            | Some _ -> acc
            | None ->
              if not (response_ok resp) then Some ("serve-mix: " ^ resp)
              else
                let hot =
                  Array.find_index (String.equal line) sv.sv_hot
                in
                match hot with
                | Some k when resp <> sv.sv_hit.(k) ->
                  Some (Printf.sprintf "serve-mix: hot key %d answer changed" k)
                | Some _ -> None
                | None when cls = "invalidate" ->
                  if response_field resp "removed" = Some (J.Int 1) then None
                  else Some ("serve-mix: invalidate removed nothing: " ^ resp)
                | None -> (
                  match Hashtbl.find_opt cold_answer line with
                  | Some first when uncached resp <> first ->
                    Some "serve-mix: hit answer differs from the cold answer"
                  | Some _ -> None
                  | None ->
                    Hashtbl.add cold_answer line (uncached resp);
                    None))
          None lines resps
      in
      let call () =
        if !attach then List.iter (traced_fit cat) lines;
        span ~layer:"serve" "Serve.Server.handle_batch" (fun () ->
            fst (Serve.Server.handle_batch server lines))
      in
      let r = op ~check call in
      note_class cls;
      Option.iter (fun rs -> responses := List.rev_append rs !responses) r;
      r
    in
    List.iter
      (function
        | Hot k -> ignore (round_trip "hit" [ sv.sv_hot.(k) ])
        | Cold i ->
          let line = cold_line ~seed i in
          (match round_trip "miss" [ line ] with
          | Some [ resp ] -> (
            match response_field resp "key" with
            | Some (J.Str key) -> cold_keys := (key, line) :: !cold_keys
            | _ -> ())
          | _ -> ())
        | Dup (i, k) ->
          let line = cold_line ~seed i in
          ignore (round_trip "miss" [ line; sv.sv_hot.(k); line ])
        | Invalidate -> (
          match !cold_keys with
          | (key, _) :: rest ->
            cold_keys := rest;
            let line = Printf.sprintf {|{"op":"invalidate","key":"%s"}|} key in
            ignore (round_trip "invalidate" [ line ])
          | [] -> fail_check "serve-mix: nothing to invalidate")
        | Restart ->
          let cat, _ = cat_server () in
          Serve.Catalog.close cat;
          connect ();
          (* the reopened index must re-serve the hot set and the cold
             keys fitted before the restart *)
          Array.iter (fun line -> ignore (round_trip "hit" [ line ])) sv.sv_hot;
          List.iter
            (fun (_, line) -> ignore (round_trip "hit" [ line ]))
            (List.filteri (fun i _ -> i < 3) (List.rev !cold_keys)))
      steps;
    Serve.Catalog.close (fst (cat_server ()));
    let normalized = List.rev_map uncached !responses in
    match !reference_responses with
    | None -> reference_responses := Some normalized
    | Some ref_ when ref_ <> normalized ->
      fail_check "serve-mix: responses differ from the first pass"
    | Some _ -> ()

(* ---- statistics ------------------------------------------------------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest sample.  Returns (value, percentile, samples). *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then (nan, nan, 0)
  else
    let i = max 0 (n - 11) in
    (a.(i), 100. *. float_of_int (i + 1) /. float_of_int n, n)

(* ---- layer accounting from the trace ---------------------------------- *)

let layers = [ "ir"; "static"; "interp"; "measure"; "model"; "core"; "serve" ]

(* Self time per span category: a span's duration minus its children's,
   with [split.<layer>] end arguments moved to the named layer. *)
let self_times events =
  let tbl = Hashtbl.create 16 in
  let credit layer s =
    Hashtbl.replace tbl layer
      (s +. Option.value ~default:0. (Hashtbl.find_opt tbl layer))
  in
  let stack = ref [] in
  List.iter
    (fun (ev : Obs_trace.event) ->
      match ev.ev_ph, !stack with
      | Obs_trace.Begin, st -> stack := (ev.ev_cat, ev.ev_ts_ns, ref 0L) :: st
      | Obs_trace.End, (cat, t0, child) :: rest ->
        let dur = Int64.sub ev.ev_ts_ns t0 in
        let moved =
          List.fold_left
            (fun acc (k, v) ->
              match v with
              | Obs_trace.Float x when String.starts_with ~prefix:"split." k ->
                credit (String.sub k 6 (String.length k - 6)) x;
                acc +. x
              | _ -> acc)
            0. ev.ev_args
        in
        credit cat (Int64.to_float (Int64.sub dur !child) /. 1e9 -. moved);
        (match rest with
        | (_, _, c) :: _ -> c := Int64.add !c dur
        | [] -> ());
        stack := rest
      | _ -> ())
    events;
  tbl

(* ---- driver ----------------------------------------------------------- *)

type workload = {
  w_name : string;
  w_min_passes : int;
      (** passes run at least, and the passes [op_tail_s] is taken over:
          enough that the tail sample lies inside the slowest class of
          operations (on taint-sweep, the size-8 lulesh run: 11 or more) *)
  w_setup_reps : int;  (** set-ups per run; [setup_s] is their median *)
  w_setup : int -> unit -> unit;
}

let workloads =
  [
    { w_name = "model-e2e"; w_min_passes = 5; w_setup_reps = 21;
      w_setup = model_e2e_setup };
    { w_name = "taint-sweep"; w_min_passes = 12; w_setup_reps = 11;
      w_setup = taint_sweep_setup };
    { w_name = "serve-mix"; w_min_passes = 4; w_setup_reps = 5;
      w_setup = serve_mix_setup };
  ]

type pass = {
  ps_wall : float;
  ps_lat : float list;  (** operation latencies *)
  ps_snap : Obs_metrics.snapshot;
}

let median_kernel l = median (List.map (fun s -> s.c_kernel) l)

(* Every pass and set-up starts from a compacted heap, so the GC state one
   leaves behind does not bill the next, and the heap peak does not
   depend on how many passes fit in the run.  [calib] brackets the pass
   with kernel samples and interleaves more between operations. *)
let run_pass ~calib pass =
  Gc.compact ();
  reg := Obs_metrics.create ();
  lat := [];
  samples := [];
  let h0, m0 = Interp.Compiled.cache_stats () in
  if calib then calibrate ();
  calibrating := calib;
  let t0 = Obs_clock.now_ns () in
  Obs_trace.with_span !sink ~cat:"bench" "bench.pass" pass;
  let t1 = Obs_clock.now_ns () in
  calibrating := false;
  if calib then calibrate ();
  let scale = calibrated !samples in
  let wall =
    if calib then List.fold_left (fun acc g -> acc +. scale g) 0. (gaps !samples)
    else seconds (t0, t1)
  in
  if calib then
    Printf.printf "pass: %.6f s, %.6f s measured; kernel %.6f s median of %d\n"
      wall
      (List.fold_left (fun acc g -> acc +. seconds g) 0. (gaps !samples))
      (median_kernel !samples) (List.length !samples)
  else Printf.printf "pass: %.6f s\n" wall;
  let h1, m1 = Interp.Compiled.cache_stats () in
  add "compile.cache_hit" (h1 - h0);
  add "compile.cache_miss" (m1 - m0);
  { ps_wall = wall; ps_lat = List.map scale !lat;
    ps_snap = Obs_metrics.snapshot !reg }

(* Passes until [budget] seconds have elapsed, at least [min]. *)
let run_passes ?(calib = false) ~min ~budget pass =
  let start = Obs_clock.now_ns () in
  let rec go acc =
    if List.length acc >= min && Obs_clock.seconds_since start >= budget then
      List.rev acc
    else go (run_pass ~calib pass :: acc)
  in
  go []

let counter snap name =
  float_of_int (Option.value ~default:0 (Obs_metrics.find_counter snap name))

let gauge snap name =
  Option.value ~default:0. (Obs_metrics.find_gauge snap name)

(* Counters that must repeat exactly between two traced passes. *)
let exact_counter name =
  List.mem name
    [ "interp.steps"; "taint.unions"; "search.evaluated";
      "model.hypotheses_tried"; "sim.runs"; "serve.hits"; "serve.misses";
      "serve.evictions" ]
  || String.starts_with ~prefix:"campaign." name

let self_check (a : Obs_metrics.snapshot) (b : Obs_metrics.snapshot) =
  List.iter
    (fun (name, v) ->
      if exact_counter name && Obs_metrics.find_counter b name <> Some v then
        fail_check "self-check: counter %s differs between traced passes" name)
    a.Obs_metrics.counters;
  List.iter
    (fun (name, v) ->
      if String.ends_with ~suffix:".minor_words" name then
        let w = gauge b name in
        if Float.abs (w -. v) > 0.05 *. Float.abs v then
          fail_check "self-check: %s moved from %.0f to %.0f words" name v w)
    a.Obs_metrics.gauges

let metric name unit value = (name, unit, value)

let print_metrics ms =
  List.iter (fun (n, u, v) -> Printf.printf "metric %-34s %16.9g %s\n" n v u) ms

let result_line ms =
  J.to_string
    (J.Obj
       [ ("correct", J.Bool (not (!check_failed || !failed > 0)));
         ("attempted", J.Int (max 1 !attempted));
         ("failed", J.Int !failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (n, u, v) ->
                  (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
                ms) ) ])

(* The tail is taken over the first [tail_passes] passes only, so its
   percentile does not move with the number of passes that fit. *)
let end_to_end ~setup_s ~tail_passes passes =
  let walls = List.map (fun p -> p.ps_wall) passes in
  let p50 = median (List.concat_map (fun p -> p.ps_lat) passes) in
  let tail_v, tail_q, n =
    tail (List.concat (List.filteri (fun i _ -> i < tail_passes)
                         (List.map (fun p -> p.ps_lat) passes)))
  in
  Printf.printf "op_tail_s is p%.2f of %d operation latencies\n" tail_q n;
  Printf.printf "failed_frac %.6f (%d of %d operations)\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    !failed !attempted;
  let st = Gc.quick_stat () in
  [ metric "setup_s" "s" setup_s;
    metric "wall_s" "s" (median walls);
    metric "ops_per_s" "1/s"
      (median
         (List.map
            (fun p -> float_of_int (List.length p.ps_lat) /. p.ps_wall)
            passes));
    metric "op_p50_s" "s" p50;
    metric "op_tail_s" "s" tail_v;
    metric "heap_peak_mb" "MB"
      (float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.) ]

let ratio a b = if b > 0. then a /. b else 0.

let per_layer ~name ~untraced ~traced =
  let k = float_of_int (List.length traced) in
  Printf.printf "%d untraced and %d traced passes\n" (List.length untraced)
    (List.length traced);
  let snap = (List.hd traced).ps_snap in
  let c = counter snap and g = gauge snap in
  let mean_gauge n =
    List.fold_left (fun acc p -> acc +. gauge p.ps_snap n) 0. traced /. k
  in
  let traced_wall = median (List.map (fun p -> p.ps_wall) traced) in
  let untraced_wall = median (List.map (fun p -> p.ps_wall) untraced) in
  let selfs = self_times (Obs_trace.events !sink) in
  let total_traced = List.fold_left (fun acc p -> acc +. p.ps_wall) 0. traced in
  let self l = Option.value ~default:0. (Hashtbl.find_opt selfs l) in
  let covered = List.fold_left (fun acc l -> acc +. self l) 0. layers in
  let intercepted = c "serve.intercepted" in
  let hits = c "serve.hits" -. intercepted in
  let misses = c "serve.misses" +. intercepted in
  let evaluated = c "search.evaluated" in
  let serve_median cls =
    match Hashtbl.find_opt serve_lat cls with
    | Some l -> median l
    | None -> 0.
  in
  (* seconds per traced pass, printed only: a layer a workload does not
     exercise reads exactly 0 *)
  let times =
    [ ("ir.parse_s", mean_gauge "ir.parse_s");
      ("static.classify_s", mean_gauge "static.classify_s");
      ("interp.taint_run_s", mean_gauge "interp.taint_run_s");
      ("interp.replay_s", mean_gauge "interp.replay_s");
      ("measure.campaign_s", mean_gauge "measure.campaign_s");
      ("model.search_s", mean_gauge "model.search_s");
      ("core.validate_s", mean_gauge "core.validate_s");
      ("serve.hit_s", serve_median "hit");
      ("serve.miss_s", serve_median "miss");
      ("serve.invalidate_s", serve_median "invalidate");
      ("serve.reopen_s", serve_median "reopen") ]
    @ List.map (fun l -> (l ^ ".self_s", self l /. k)) ("bench" :: layers)
  in
  List.iter (fun (n, v) -> Printf.printf "layer %-28s %14.6f s\n" n v) times;
  Printf.printf "trace written to %s\n"
    (Filename.concat !out_dir (name ^ ".trace.json"));
  [ metric "ir.parse_bytes" "bytes" (c "ir.parse_bytes");
    metric "interp.steps" "count" (c "interp.steps");
    metric "taint.unions" "count" (c "taint.unions");
    metric "taint.dedup_hits" "count" (c "taint.dedup_hits");
    metric "taint.labels" "count" (c "taint.labels");
    metric "taint.minor_words" "words" (g "taint.minor_words");
    metric "interp.replay_steps" "count" (c "interp.replay_steps");
    metric "interp.taint_over_plain" "x"
      (ratio (g "interp.taint_run_s") (g "interp.replay_s"));
    metric "compile.cache_miss" "count" (c "compile.cache_miss");
    metric "compile.cache_hit" "count" (c "compile.cache_hit");
    metric "sim.runs" "count" (c "sim.runs");
    metric "campaign.attempts" "count" (c "campaign.attempts");
    metric "campaign.retries" "count" (c "campaign.retries");
    metric "campaign.abandoned" "count" (c "campaign.abandoned");
    metric "campaign.wasted_core_hours" "core_h"
      (g "campaign.wasted_core_hours");
    metric "model.fits" "count" (c "model.fits");
    metric "model.hypotheses_tried" "count" (c "model.hypotheses_tried");
    metric "search.evaluated" "count" evaluated;
    metric "search.candidates.single_term" "count"
      (c "search.candidates.single_term");
    metric "search.candidates.two_term" "count"
      (c "search.candidates.two_term");
    metric "search.candidates.multi_param" "count"
      (c "search.candidates.multi_param");
    metric "search.rejected.unfit" "count" (c "search.rejected.unfit");
    metric "model.unfit_ratio" "frac"
      (ratio (c "search.rejected.unfit") evaluated);
    metric "model.minor_words" "words" (g "model.minor_words");
    metric "core.validate_evaluated" "count" (c "core.validate_evaluated");
    metric "core.contention_findings" "count" (c "core.contention_findings");
    metric "core.design_findings" "count" (c "core.design_findings");
    metric "serve.hits" "count" hits;
    metric "serve.misses" "count" misses;
    metric "serve.evictions" "count" (c "serve.evictions");
    metric "serve.hit_ratio" "frac" (ratio hits (hits +. misses)) ]
  @ List.map
      (fun l -> metric (l ^ ".self_frac") "frac" (ratio (self l) total_traced))
      layers
  @ [ metric "layers.self_frac" "frac" (ratio covered total_traced);
      metric "trace_overhead_frac" "frac" ((traced_wall /. untraced_wall) -. 1.);
      metric "traced_wall_s" "s" traced_wall ]

let usage () =
  prerr_endline
    "usage: e2e.exe --workload model-e2e|taint-sweep|serve-mix --seed N \
     --seconds S --trace 0|1 [--golden FILE] [--out DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 20
  and trace = ref 0 and golden_path = ref "perfbench/golden.txt" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--golden" :: v :: rest -> golden_path := v; parse rest
    | "--out" :: v :: rest -> out_dir := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  load_golden !golden_path;
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  let budget = float_of_int !seconds in
  Printf.printf "host: nproc %d, OCaml %s, jobs 1; workload %s, seed %d, %d s\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version w.w_name !seed !seconds;
  (* several set-ups; the last one's inputs are measured *)
  let setup_reps = w.w_setup_reps in
  let calib = !trace = 0 in
  let setups =
    List.init setup_reps (fun _ ->
        Gc.compact ();
        samples := [];
        if calib then calibrate ();
        let h0, m0 = Interp.Compiled.cache_stats () in
        let t0 = Obs_clock.now_ns () in
        let pass = w.w_setup !seed in
        let t1 = Obs_clock.now_ns () in
        let h1, m1 = Interp.Compiled.cache_stats () in
        if calib then calibrate ();
        (pass, calibrated !samples (t0, t1), h1 - h0, m1 - m0))
  in
  let pass, _, setup_hit, setup_miss = List.nth setups (setup_reps - 1) in
  let setup_s = median (List.map (fun (_, dt, _, _) -> dt) setups) in
  Printf.printf "setup: %.6f s median of %d; lowering cache %d hit, %d miss\n"
    setup_s setup_reps setup_hit setup_miss;
  let ms =
    if calib then
      end_to_end ~setup_s ~tail_passes:w.w_min_passes
        (run_passes ~calib ~min:w.w_min_passes ~budget pass)
    else begin
      let untraced = run_passes ~min:2 ~budget:(budget /. 2.) pass in
      sink := Obs_trace.create ();
      attach := true;
      Hashtbl.reset serve_lat;
      let traced = run_passes ~min:2 ~budget:(budget /. 2.) pass in
      self_check (List.hd traced).ps_snap (List.nth traced 1).ps_snap;
      Obs_trace.write_file !sink
        (Filename.concat !out_dir (w.w_name ^ ".trace.json"));
      per_layer ~name:w.w_name ~untraced ~traced
      @ [ metric "compile.setup_miss" "count" (float_of_int setup_miss) ]
    end
  in
  print_metrics ms;
  List.iter (Printf.printf "problem: %s\n") (List.rev !problems);
  print_endline (result_line ms);
  if !check_failed || !failed > 0 then exit 1
