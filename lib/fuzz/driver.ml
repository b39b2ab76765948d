(** Fuzzing campaigns: generate, check against every oracle, shrink the
    first failure per oracle, persist minimized counterexamples as
    replayable [.pir] files. *)

type counterexample = {
  cx_oracle : string;
  cx_message : string;
  cx_index : int;
  cx_program : Ir.Types.program;
  cx_text : string;
  cx_lines : int;
}

type oracle_result = {
  or_name : string;
  or_runs : int;
  or_cx : counterexample option;
}

type report = { rp_seed : int; rp_budget : int; rp_results : oracle_result list }

let count_lines s =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s
  + if s <> "" && s.[String.length s - 1] <> '\n' then 1 else 0

let make_cx ?config oracle ~index p0 =
  (* Shrink against this oracle only; the minimized program must still
     fail it (minimize only moves between failing programs). *)
  let failing q =
    match Oracle.check ?config oracle (Gen.to_program q) with
    | Oracle.Fail _ -> true
    | Oracle.Pass -> false
  in
  let small = Shrink.minimize failing p0 in
  let prog = Gen.to_program small in
  let message =
    match Oracle.check ?config oracle prog with
    | Oracle.Fail m -> m
    | Oracle.Pass -> "unshrunk failure (minimized form passes?)"
  in
  let text = Ir.Pp.program_to_string prog in
  {
    cx_oracle = oracle.Oracle.name;
    cx_message = message;
    cx_index = index;
    cx_program = prog;
    cx_text = text;
    cx_lines = count_lines text;
  }

let oneline s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* The fuzz.* event vocabulary; doc/OBSERVABILITY.md lists exactly these
   (a drift test compares). *)
let event_names =
  [
    ("fuzz.oracle", "one oracle's campaign summary: runs checked, verdict");
    ("fuzz.counterexample", "a minimized counterexample for one oracle");
  ]

let run_campaign ?(pool = Par.Pool.serial) ?(oracles = Oracle.all) ?config
    ?(events = Obs_events.disabled) ~seed ~budget () =
  let st = Random.State.make [| seed |] in
  let slots = List.map (fun o -> (o, ref 0, ref None)) oracles in
  (* Waves of [Par.Pool.wave pool] cases.  Generation is one serial pass
     over the single PRNG stream, so the corpus is the same at every job
     count, and only the oracle checks (pure functions of the program)
     run on the pool.  Verdicts then replay in case order on the
     submitting domain: runs counting, first-failure selection and
     shrinking are one fold whatever the job count.  Oracles that have
     failed check nothing more; one failing mid-wave wastes at most the
     rest of its wave, and once every oracle has failed the campaign
     stops. *)
  let rec waves index =
    match List.filter (fun (_, _, cx) -> !cx = None) slots with
    | [] -> ()
    | _ when index >= budget -> ()
    | live ->
      let cases =
        List.init
          (min (Par.Pool.wave pool) (budget - index))
          (fun i -> (index + i, Gen.generate st))
      in
      Par.Pool.map pool ~chunk:1
        (fun (index, p) ->
          let prog = Gen.to_program p in
          ( index,
            p,
            List.map (fun (o, _, _) -> Oracle.check ?config o prog) live ))
        cases
      |> List.iter (fun (index, p, verdicts) ->
             List.iter2
               (fun (o, runs, cx) verdict ->
                 if !cx = None then begin
                   incr runs;
                   match verdict with
                   | Oracle.Pass -> ()
                   | Oracle.Fail _ -> cx := Some (make_cx ?config o ~index p)
                 end)
               live verdicts);
      waves (index + List.length cases)
  in
  waves 0;
  let report =
    {
      rp_seed = seed;
      rp_budget = budget;
      rp_results =
        List.map
          (fun (o, runs, cx) ->
            { or_name = o.Oracle.name; or_runs = !runs; or_cx = !cx })
          slots;
    }
  in
  (* Events are derived from the finished report on the calling domain,
     in oracle order — deterministic, and identical at any [--jobs]. *)
  if Obs_events.enabled events then
    List.iter
      (fun r ->
        Obs_events.emit events ~component:"fuzz"
          ~fields:
            [
              ("oracle", Obs_events.Str r.or_name);
              ("runs", Obs_events.Int r.or_runs);
              ("failed", Obs_events.Bool (r.or_cx <> None));
            ]
          "fuzz.oracle";
        match r.or_cx with
        | None -> ()
        | Some cx ->
          Obs_events.emit events ~severity:Obs_events.Error ~component:"fuzz"
            ~fields:
              [
                ("oracle", Obs_events.Str cx.cx_oracle);
                ("index", Obs_events.Int cx.cx_index);
                ("lines", Obs_events.Int cx.cx_lines);
                ("message", Obs_events.Str (oneline cx.cx_message));
              ]
            "fuzz.counterexample")
      report.rp_results;
  report

let counterexamples r = List.filter_map (fun o -> o.or_cx) r.rp_results

let save ~dir ~seed cx =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file =
    Printf.sprintf "cx-%s-seed%d-%d.pir" cx.cx_oracle seed cx.cx_index
  in
  let path = Filename.concat dir file in
  let oc = open_out path in
  Printf.fprintf oc "; counterexample: oracle %s (seed %d, program %d)\n"
    cx.cx_oracle seed cx.cx_index;
  Printf.fprintf oc "; %s\n" (oneline cx.cx_message);
  Printf.fprintf oc "; replay: perf_taint fuzz %s\n" path;
  output_string oc cx.cx_text;
  close_out oc;
  path

let replay_file ?(oracles = Oracle.all) ?config path =
  let prog = Ir.Parser.parse_file path in
  List.map (fun o -> (o.Oracle.name, Oracle.check ?config o prog)) oracles
