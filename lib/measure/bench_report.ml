(** Regression-aware bench reporting: compare [BENCH_<exp>.json] files
    against committed baselines with a relative tolerance, and merge
    bench results, a campaign journal, and a metrics-snapshot JSON into
    one markdown report.

    Baselines are ordinary [BENCH_<exp>.json] files checked into
    [bench/baselines/].  Comparison flattens both documents into dotted
    leaf paths ([fit.error], [kernels[2].total]); numbers must agree
    within the tolerance (relative, with an absolute floor near zero),
    strings and booleans must agree exactly, and a baseline key missing
    from the actual file is a failure.  Extra keys in the actual file
    are ignored, so experiments may grow new headline numbers without
    invalidating old baselines.  A baseline file may override the
    tolerance for itself via a top-level ["tolerance"] key. *)

let default_tolerance = 0.05

(* Keys that describe the comparison rather than participate in it. *)
let meta_key = function "experiment" | "tolerance" -> true | _ -> false

(* -- flattening ------------------------------------------------------------ *)

(** Leaves of a JSON document as (dotted path, scalar) pairs, in document
    order.  Lists index as [path[i]]. *)
let flatten j =
  let acc = ref [] in
  let rec go prefix = function
    | Obs_json.Obj fields ->
      List.iter
        (fun (k, v) ->
          let p = if prefix = "" then k else prefix ^ "." ^ k in
          go p v)
        fields
    | Obs_json.List items ->
      List.iteri (fun i v -> go (Printf.sprintf "%s[%d]" prefix i) v) items
    | leaf -> acc := (prefix, leaf) :: !acc
  in
  go "" j;
  List.rev !acc

let leaf_repr = function
  | Obs_json.Null -> "null"
  | Obs_json.Bool b -> string_of_bool b
  | Obs_json.Int i -> string_of_int i
  | Obs_json.Float f -> Printf.sprintf "%.6g" f
  | Obs_json.Str s -> s
  | (Obs_json.List _ | Obs_json.Obj _) as j -> Obs_json.to_string j

(* -- comparison ------------------------------------------------------------ *)

type mismatch = {
  mm_path : string;
  mm_expected : string;
  mm_actual : string;   (** ["<missing>"] when the key is absent *)
  mm_reason : string;
}

let close ~tolerance a b =
  if Float.is_nan a && Float.is_nan b then true
  else
    let scale = Float.max (Float.abs a) (Float.abs b) in
    Float.abs (a -. b) <= Float.max 1e-12 (tolerance *. scale)

(** Mismatches of [actual] against [expected], in baseline key order.
    Keys present only in [actual] are not mismatches. *)
let compare_values ~tolerance ~expected ~actual =
  let actual_leaves = flatten actual in
  List.filter_map
    (fun (path, exp_leaf) ->
      if meta_key path then None
      else
        let mk reason actual_repr =
          Some
            {
              mm_path = path;
              mm_expected = leaf_repr exp_leaf;
              mm_actual = actual_repr;
              mm_reason = reason;
            }
        in
        match List.assoc_opt path actual_leaves with
        | None -> mk "missing from actual" "<missing>"
        | Some act_leaf -> (
          match (Obs_json.to_float exp_leaf, Obs_json.to_float act_leaf) with
          | Some e, Some a ->
            if close ~tolerance e a then None
            else
              mk
                (Printf.sprintf "outside %.3g relative tolerance" tolerance)
                (leaf_repr act_leaf)
          | _ ->
            if exp_leaf = act_leaf then None
            else mk "value differs" (leaf_repr act_leaf)))
    (flatten expected)

(* -- file-level checks ----------------------------------------------------- *)

type check = {
  ck_name : string;        (** experiment name (from the baseline) *)
  ck_baseline : string;    (** baseline path *)
  ck_tolerance : float;
  ck_mismatches : mismatch list;  (** empty = pass *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path =
  match Obs_json.parse (String.trim (read_file path)) with
  | Ok j -> Ok j
  | Error e -> Error (path ^ ": " ^ e)

let check_baseline ?(tolerance = default_tolerance) ~baseline ~actual () =
  match parse_file baseline with
  | Error e -> Error e
  | Ok base ->
    let tolerance =
      match
        Option.bind (Obs_json.member "tolerance" base) Obs_json.to_float
      with
      | Some t -> t
      | None -> tolerance
    in
    let name =
      match Option.bind (Obs_json.member "experiment" base) Obs_json.to_str with
      | Some n -> n
      | None -> Filename.basename baseline
    in
    if not (Sys.file_exists actual) then
      Ok
        {
          ck_name = name;
          ck_baseline = baseline;
          ck_tolerance = tolerance;
          ck_mismatches =
            [
              {
                mm_path = "<file>";
                mm_expected = Filename.basename actual;
                mm_actual = "<missing>";
                mm_reason = "actual results file not found (run the \
                             experiment first)";
              };
            ];
        }
    else
      Result.map
        (fun act ->
          {
            ck_name = name;
            ck_baseline = baseline;
            ck_tolerance = tolerance;
            ck_mismatches = compare_values ~tolerance ~expected:base ~actual:act;
          })
        (parse_file actual)

(** Check every [BENCH_*.json] baseline in [dir] against the file of the
    same name in [actual_dir], in filename order. *)
let check_dir ?tolerance ~dir ~actual_dir () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (dir ^ ": no such baseline directory")
  else
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 6
             && String.sub f 0 6 = "BENCH_"
             && Filename.check_suffix f ".json")
      |> List.sort compare
    in
    if files = [] then Error (dir ^ ": no BENCH_*.json baselines")
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | f :: rest -> (
          match
            check_baseline ?tolerance ~baseline:(Filename.concat dir f)
              ~actual:(Filename.concat actual_dir f) ()
          with
          | Ok c -> go (c :: acc) rest
          | Error e -> Error e)
      in
      go [] files

let passed checks = List.for_all (fun c -> c.ck_mismatches = []) checks

let pp_checks ppf checks =
  List.iter
    (fun c ->
      if c.ck_mismatches = [] then
        Fmt.pf ppf "  PASS %-12s (tolerance %.3g)@." c.ck_name c.ck_tolerance
      else begin
        Fmt.pf ppf "  FAIL %-12s (tolerance %.3g)@." c.ck_name c.ck_tolerance;
        List.iter
          (fun m ->
            Fmt.pf ppf "       %s: expected %s, got %s (%s)@." m.mm_path
              m.mm_expected m.mm_actual m.mm_reason)
          c.ck_mismatches
      end)
    checks

(* -- markdown report ------------------------------------------------------- *)

let buf_addf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

(* One bench-results section: flattened leaves as a table, with baseline
   and delta columns when a baseline value exists for the path. *)
let render_bench buf ~baseline file j =
  let name =
    match Option.bind (Obs_json.member "experiment" j) Obs_json.to_str with
    | Some n -> n
    | None -> Filename.basename file
  in
  let base_leaves =
    match baseline with
    | Some b -> flatten b
    | None -> []
  in
  buf_addf buf "## %s\n\n" name;
  if base_leaves = [] then begin
    buf_addf buf "| metric | value |\n|---|---|\n";
    List.iter
      (fun (p, v) ->
        if not (meta_key p) then buf_addf buf "| `%s` | %s |\n" p (leaf_repr v))
      (flatten j)
  end
  else begin
    buf_addf buf "| metric | value | baseline | delta |\n|---|---|---|---|\n";
    List.iter
      (fun (p, v) ->
        if not (meta_key p) then
          let base = List.assoc_opt p base_leaves in
          let delta =
            match (Option.bind base Obs_json.to_float, Obs_json.to_float v) with
            | Some b, Some a when b <> 0. ->
              Printf.sprintf "%+.2f%%" (100. *. (a -. b) /. Float.abs b)
            | Some b, Some a when a = b -> "+0.00%"
            | _ -> ""
          in
          buf_addf buf "| `%s` | %s | %s | %s |\n" p (leaf_repr v)
            (match base with Some b -> leaf_repr b | None -> "")
            delta)
      (flatten j)
  end;
  Buffer.add_char buf '\n'

(* Campaign-journal summary.  Records decode through the journal's own
   reader; only attempt/fault/outcome fields are summed, so the run mode
   it is given does not matter. *)
let render_journal buf path =
  match String.split_on_char '\n' (read_file path) with
  | [] -> ()
  | header :: body ->
    buf_addf buf "## campaign journal `%s`\n\n" (Filename.basename path);
    (match Obs_json.parse (String.trim header) with
    | Ok h ->
      (match Option.bind (Obs_json.member "app" h) Obs_json.to_str with
      | Some app -> buf_addf buf "app: `%s`" app
      | None -> ());
      (match Option.bind (Obs_json.member "faults" h) Obs_json.to_str with
      | Some f when f <> "" -> buf_addf buf ", faults: `%s`" f
      | _ -> ());
      buf_addf buf "\n\n"
    | Error _ -> ());
    let records = ref 0 and completed = ref 0 and abandoned = ref 0 in
    let attempts = ref 0 and wasted = ref 0. and backoff = ref 0. in
    let faults = Hashtbl.create 4 in
    List.iter
      (fun line ->
        match
          Campaign.record_of_line ~mode:Instrument.Full (String.trim line)
        with
        | Error _ -> ()
        | Ok r ->
          incr records;
          (match r.Campaign.rc_outcome with
          | Campaign.Completed _ -> incr completed
          | Campaign.Abandoned _ -> incr abandoned);
          attempts := !attempts + r.Campaign.rc_attempts;
          wasted := !wasted +. r.Campaign.rc_wasted_s;
          backoff := !backoff +. r.Campaign.rc_backoff_s;
          List.iter
            (fun k ->
              Hashtbl.replace faults k
                (1 + Option.value ~default:0 (Hashtbl.find_opt faults k)))
            r.Campaign.rc_faults)
      body;
    buf_addf buf "| records | completed | abandoned | attempts | wasted s | backoff s |\n";
    buf_addf buf "|---|---|---|---|---|---|\n";
    buf_addf buf "| %d | %d | %d | %d | %.3f | %.3f |\n\n" !records !completed
      !abandoned !attempts !wasted !backoff;
    let fs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) faults [] in
    if fs <> [] then begin
      buf_addf buf "faults: %s\n\n"
        (String.concat ", "
           (List.map
              (fun (k, v) -> Printf.sprintf "`%s`=%d" k v)
              (List.sort compare fs)))
    end

(* Metrics-snapshot section from a `stats --json` file: counters and
   gauges as tables, histograms with their percentile summary. *)
let render_stats buf path =
  match parse_file path with
  | Error e -> buf_addf buf "## metrics snapshot\n\n(unreadable: %s)\n\n" e
  | Ok j ->
    buf_addf buf "## metrics snapshot `%s`\n\n" (Filename.basename path);
    let metrics =
      match Obs_json.member "metrics" j with Some m -> m | None -> j
    in
    let table title key =
      match Obs_json.member key metrics with
      | Some (Obs_json.Obj fields) when fields <> [] ->
        buf_addf buf "### %s\n\n| name | value |\n|---|---|\n" title;
        List.iter
          (fun (n, v) -> buf_addf buf "| `%s` | %s |\n" n (leaf_repr v))
          fields;
        Buffer.add_char buf '\n'
      | _ -> ()
    in
    table "counters" "counters";
    table "gauges" "gauges";
    (match Obs_json.member "histograms" metrics with
    | Some (Obs_json.Obj hists) when hists <> [] ->
      buf_addf buf
        "### histograms\n\n| name | n | sum | min | p50 | p95 | p99 | max |\n";
      buf_addf buf "|---|---|---|---|---|---|---|---|\n";
      List.iter
        (fun (n, h) ->
          let fld k =
            match Option.bind (Obs_json.member k h) Obs_json.to_float with
            | Some f -> Printf.sprintf "%.4g" f
            | None -> ""
          in
          buf_addf buf "| `%s` | %s | %s | %s | %s | %s | %s | %s |\n" n
            (fld "count") (fld "sum") (fld "min") (fld "p50") (fld "p95")
            (fld "p99") (fld "max"))
        hists;
      Buffer.add_char buf '\n'
    | _ -> ())

(** The merged markdown report.  [bench_files] are [BENCH_*.json] result
    files (rendered in the given order); [baselines_dir] adds baseline
    and delta columns where a same-named baseline exists; [journal] and
    [stats] append campaign-journal and metrics-snapshot sections. *)
let report ?baselines_dir ?journal ?stats ~bench_files () =
  let buf = Buffer.create 4096 in
  buf_addf buf "# perf-taint bench report\n\n";
  if bench_files = [] && journal = None && stats = None then
    buf_addf buf "(no inputs)\n";
  List.iter
    (fun file ->
      match parse_file file with
      | Error e -> buf_addf buf "## %s\n\n(unreadable: %s)\n\n" file e
      | Ok j ->
        let baseline =
          match baselines_dir with
          | None -> None
          | Some dir -> (
            let b = Filename.concat dir (Filename.basename file) in
            if Sys.file_exists b then
              match parse_file b with Ok bj -> Some bj | Error _ -> None
            else None)
        in
        render_bench buf ~baseline file j)
    bench_files;
  (match journal with
  | Some path when Sys.file_exists path -> render_journal buf path
  | Some path -> buf_addf buf "## campaign journal\n\n(missing: %s)\n\n" path
  | None -> ());
  (match stats with Some path -> render_stats buf path | None -> ());
  Buffer.contents buf
