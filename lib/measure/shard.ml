(** Distributed campaign sharding: partition an {!Experiment.design}
    across worker processes by deterministic coordinate hash, supervise
    the workers (wall-clock timeouts, restart-with-resume on death), and
    merge their checkpoint journals back into one campaign in global
    design order.

    The partition is a pure function of the coordinate — salted hash of
    the sorted parameter bindings and the repetition index, mod the
    shard count — so every process of the same binary computes the same
    ownership, no shard map ever needs to be exchanged, and the same
    [k/M] spec always names the same subset of the design.

    The merge holds the sharded story to the same bar as every layer
    below it: records are reassembled in {!Campaign.coordinates} order,
    headers are validated against the campaign identity line, restart
    duplicates are dropped (first completed record wins), torn trailing
    lines from killed workers are tolerated, and the resulting journal,
    report, metrics replay and event stream are bit-identical to a
    single fault-free shard's (the [shard-identity] fuzz oracle). *)

type t = { sh_index : int; sh_count : int }

let spec_of t = Printf.sprintf "%d/%d" t.sh_index t.sh_count

let of_spec s =
  let invalid () =
    Error
      (Printf.sprintf
         "bad shard spec %S: expected K/M with 0 <= K < M (e.g. --shard 0/3)"
         s)
  in
  match String.index_opt s '/' with
  | None -> invalid ()
  | Some i -> (
    let k = String.sub s 0 i in
    let m = String.sub s (i + 1) (String.length s - i - 1) in
    match (int_of_string_opt k, int_of_string_opt m) with
    | Some k, Some m when m >= 1 && k >= 0 && k < m ->
      Ok { sh_index = k; sh_count = m }
    | _ -> invalid ())

(* The coordinate hash is salted so it cannot collide with the fault
   plan's draw (which hashes ("fault", params, rep)); parameters are
   sorted so the assignment is independent of grid axis order, exactly
   like the fault draw.  [Hashtbl.hash] is specified over the structure
   of its argument, so separate processes of the same binary agree. *)
let assign ~shards ~params ~rep =
  if shards < 1 then invalid_arg "Measure.Shard.assign: shards must be >= 1";
  abs (Hashtbl.hash ("shard", List.sort compare params, rep)) mod shards

let owns t ~params ~rep = assign ~shards:t.sh_count ~params ~rep = t.sh_index

let coordinates t design =
  List.filter
    (fun (params, rep) -> owns t ~params ~rep)
    (Campaign.coordinates design)

let journal_path ~journal k = Printf.sprintf "%s.shard%d" journal k

(* The shard.* vocabularies; doc/OBSERVABILITY.md lists exactly these
   (a drift test compares). *)
let counters =
  [
    ("shard.spawned", "worker processes spawned by the shard coordinator");
    ("shard.deaths", "workers that died, timed out, or stopped short");
    ("shard.restarts", "dead workers restarted on their journal with resume");
    ("shard.merged", "per-shard journals merged into one campaign");
  ]

let event_names =
  [
    ("shard.spawn", "the coordinator spawned a worker process for one shard");
    ("shard.death", "a worker died, timed out, or left its shard incomplete");
    ("shard.restart", "a dead worker was restarted to resume its journal");
    ("shard.merge", "per-shard journals were merged in global design order");
  ]

(* -- journal merge ---------------------------------------------------------- *)

type merge = {
  mg_records : Campaign.record list;
  mg_journals : int;
  mg_duplicates : int;
  mg_torn : int;
  mg_missing : (Spec.params * int) list;
}

let merge_journals ?metrics ?(events = Obs_events.disabled) ~mode
    ~expected_header ~design paths =
  let tbl = Hashtbl.create 256 in
  let dups = ref 0 in
  let torn = ref 0 in
  let ingest (r : Campaign.record) =
    let key = (r.Campaign.rc_params, r.Campaign.rc_rep) in
    match Hashtbl.find_opt tbl key with
    | None -> Hashtbl.replace tbl key r
    | Some (prev : Campaign.record) -> (
      (* A coordinate in two journals is a restart overlap.  First
         completed record wins: a completion may supersede an earlier
         abandonment (the retry lottery is deterministic per coordinate,
         so two completions are bit-identical anyway), never vice
         versa. *)
      incr dups;
      match (prev.Campaign.rc_outcome, r.Campaign.rc_outcome) with
      | Campaign.Abandoned _, Campaign.Completed _ -> Hashtbl.replace tbl key r
      | _ -> ())
  in
  let rec load = function
    | [] -> Ok ()
    | path :: rest -> (
      match Campaign.load_journal ~mode ~expected_header path with
      | Error e -> Error e
      | Ok (records, t) ->
        torn := !torn + t;
        List.iter ingest records;
        load rest)
  in
  match load paths with
  | Error e -> Error e
  | Ok () ->
    let coords = Campaign.coordinates design in
    let known = Hashtbl.create 256 in
    List.iter (fun c -> Hashtbl.replace known c ()) coords;
    let alien =
      Hashtbl.fold
        (fun key _ n -> if Hashtbl.mem known key then n else n + 1)
        tbl 0
    in
    if alien > 0 then
      Error
        (Printf.sprintf
           "shard merge: %d record(s) name coordinates outside the campaign \
            design"
           alien)
    else begin
      let records, missing =
        List.fold_left
          (fun (rs, ms) c ->
            match Hashtbl.find_opt tbl c with
            | Some r -> (r :: rs, ms)
            | None -> (rs, c :: ms))
          ([], []) coords
      in
      let records = List.rev records in
      let missing = List.rev missing in
      (* Replay the per-record effects in design order, exactly as the
         serial executor emits them — the merged registry and event
         stream continue where a single-process campaign's would. *)
      (match metrics with
      | None -> ()
      | Some reg ->
        List.iter (Campaign.replay_metrics reg) records;
        Obs_metrics.add
          (Obs_metrics.counter reg "campaign.shard_dup")
          !dups;
        if !torn > 0 then
          Obs_metrics.add
            (Obs_metrics.counter reg "campaign.journal_torn")
            !torn;
        Obs_metrics.add
          (Obs_metrics.counter reg "shard.merged")
          (List.length paths));
      List.iter (Campaign.record_events events) records;
      if Obs_events.enabled events then
        Obs_events.emit events ~severity:Obs_events.Debug ~component:"shard"
          ~fields:
            [
              ("journals", Obs_events.Int (List.length paths));
              ("records", Obs_events.Int (List.length records));
              ("duplicates", Obs_events.Int !dups);
              ("torn", Obs_events.Int !torn);
              ("missing", Obs_events.Int (List.length missing));
            ]
          "shard.merge";
      Ok
        {
          mg_records = records;
          mg_journals = List.length paths;
          mg_duplicates = !dups;
          mg_torn = !torn;
          mg_missing = missing;
        }
    end

(* -- worker supervision ----------------------------------------------------- *)

(* A shard is complete when its journal parses against the campaign
   header and covers every coordinate the shard owns.  A worker that
   exits cleanly but short (an injected --max-runs kill, an interrupted
   wave) is treated exactly like a crash: death, then restart with
   resume. *)
let complete ~mode ~expected_header ~design shard path =
  Sys.file_exists path
  && (match Campaign.load_journal ~mode ~expected_header path with
     | Error _ -> false
     | Ok (records, _) ->
       let have = Hashtbl.create 64 in
       List.iter
         (fun (r : Campaign.record) ->
           Hashtbl.replace have (r.Campaign.rc_params, r.Campaign.rc_rep) ())
         records;
       List.for_all
         (fun c -> Hashtbl.mem have c)
         (coordinates shard design))

type wstate =
  | Running of { pid : int; deadline : float }
  | Done
  | Failed of string

let run_workers ?metrics ?(events = Obs_events.disabled) ~mode
    ~expected_header ~design ~shards ~journal ~timeout_s ~max_restarts ~argv
    () =
  let counter name =
    Option.map (fun reg -> Obs_metrics.counter reg name) metrics
  in
  let bump ?(n = 1) c =
    match c with None -> () | Some c -> Obs_metrics.add c n
  in
  let spawned_c = counter "shard.spawned" in
  let deaths_c = counter "shard.deaths" in
  let restarts_c = counter "shard.restarts" in
  let emit ?severity name k extra =
    if Obs_events.enabled events then
      Obs_events.emit events ?severity ~component:"shard"
        ~fields:
          (( "shard",
             Obs_events.Str (spec_of { sh_index = k; sh_count = shards }) )
          :: extra)
        name
  in
  let states = Array.make shards Done in
  let restarts = Array.make shards 0 in
  let spawn k ~resume =
    let path = journal_path ~journal k in
    let av = argv ~shard:{ sh_index = k; sh_count = shards } ~journal:path ~resume in
    (* Worker stdout/stderr go to a per-shard log (appended across
       restarts): the coordinator's own report stays clean and the logs
       survive as artifacts for a post-mortem. *)
    let log =
      Unix.openfile (path ^ ".log")
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
        0o644
    in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close log)
        (fun () -> Unix.create_process av.(0) av Unix.stdin log log)
    in
    bump spawned_c;
    emit "shard.spawn" k
      [ ("pid", Obs_events.Int pid); ("resume", Obs_events.Bool resume) ];
    states.(k) <- Running { pid; deadline = Unix.gettimeofday () +. timeout_s }
  in
  let death k ~reason =
    bump deaths_c;
    emit ~severity:Obs_events.Warn "shard.death" k
      [ ("reason", Obs_events.Str reason) ];
    if restarts.(k) >= max_restarts then
      states.(k) <-
        Failed
          (Printf.sprintf "shard %d/%d %s after %d restart(s)" k shards reason
             restarts.(k))
    else begin
      restarts.(k) <- restarts.(k) + 1;
      bump restarts_c;
      emit "shard.restart" k
        [ ("attempt", Obs_events.Int restarts.(k)) ];
      spawn k ~resume:true
    end
  in
  let check k =
    match states.(k) with
    | Done | Failed _ -> ()
    | Running { pid; deadline } -> (
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (* Past the wall-clock budget: kill, reap, and treat as a
             death (the journal keeps everything flushed so far). *)
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          death k ~reason:(Printf.sprintf "timed out after %.0fs" timeout_s)
        end
      | _, status ->
        if complete ~mode ~expected_header ~design
             { sh_index = k; sh_count = shards }
             (journal_path ~journal k)
        then states.(k) <- Done
        else
          death k
            ~reason:
              (match status with
              | Unix.WEXITED 0 -> "exited with an incomplete shard"
              | Unix.WEXITED n -> Printf.sprintf "exited with code %d" n
              | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
              | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s))
  in
  for k = 0 to shards - 1 do
    spawn k ~resume:false
  done;
  let running () =
    Array.exists (function Running _ -> true | _ -> false) states
  in
  while running () do
    for k = 0 to shards - 1 do
      check k
    done;
    if running () then Unix.sleepf 0.05
  done;
  let failures =
    Array.to_list states
    |> List.filter_map (function Failed msg -> Some msg | _ -> None)
  in
  match failures with
  | [] -> Ok ()
  | msg :: _ -> Error msg
