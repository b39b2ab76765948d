(** Extension experiment: what the serving layer buys.  A deterministic
    load generator replays mixed predict queries against an in-process
    daemon ([Serve.Server.handle_line] — the whole daemon minus the
    socket) at 0/50/95% hit-rate sweeps and reports the median latency
    of cache hits against cold fits.  Answers are never paid for with
    correctness: before any time is reported, a sample of hit responses
    is byte-compared against always-cold refits in a fresh catalog, and
    the warm-restart path (a second server reopening the same on-disk
    index) must re-serve every hot key byte-identically.  The
    hit-rate-95 sweep must show a >= 70x median-latency speedup, which
    a hit that hashed the program text again, or parsed its request and
    index line a byte option at a time, would miss. *)

module J = Obs_json

let hit_axis = [ 0; 50; 95 ]
let hot_keys = 12
let queries_per_sweep = 160

(* Cheap but real fits: one varying axis, two repetitions — the same
   campaign+search path as a full design, just a small grid. *)
let request ~op ~seed extra =
  Printf.sprintf
    {|{"op":"%s","app":"lulesh"%s,"grid":{"p":[2,4,8,16],"size":[16],"r":[8]},"reps":2,"seed":%d}|}
    op extra seed

let predict_req ~seed ~p =
  request ~op:"predict" ~seed
    (Printf.sprintf {|,"coords":{"p":%d,"size":16}|} p)

let fit_req ~seed = request ~op:"fit" ~seed ""

let hot_seed k = 100 + k
let fresh_seed i = 1000 + i

(* Deterministic query mix. *)
let lcg x = ((1103515245 * x) + 12345) land 0x3FFFFFFF

let is_cached resp =
  (* responses are single-line JSON built by Protocol; substring is safe *)
  let needle = {|"cached":true|} in
  let n = String.length needle and m = String.length resp in
  let rec go i = i + n <= m && (String.sub resp i n = needle || go (i + 1)) in
  go 0

let normalize_cached resp =
  let needle = {|"cached":true|} and repl = {|"cached":false|} in
  let n = String.length needle in
  let b = Buffer.create (String.length resp) in
  let rec go i =
    if i >= String.length resp then ()
    else if
      i + n <= String.length resp && String.sub resp i n = needle
    then begin
      Buffer.add_string b repl;
      go (i + n)
    end
    else begin
      Buffer.add_char b resp.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* [nan] is not JSON; the 0%-hit sweep has no hit latencies. *)
let fnum x = if Float.is_nan x then J.Null else J.Float x

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)

let with_tmp_catalog f =
  let dir = Filename.temp_file "bench-serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      let index = Filename.concat dir "catalog.jsonl" in
      if Sys.file_exists index then Sys.remove index;
      let tmp = index ^ ".tmp" in
      if Sys.file_exists tmp then Sys.remove tmp;
      if Sys.file_exists dir then Sys.rmdir dir)
    (fun () -> f dir)

let open_server ~metrics ~dir =
  match Serve.Catalog.open_ ~metrics ~dir () with
  | Error e -> failwith e
  | Ok cat ->
    (cat, Serve.Server.create ~metrics ~catalog:cat ())

let ask server line = fst (Serve.Server.handle_line server line)

let run () =
  Exp_common.section
    "serve: memoized catalog vs always-cold fits (load generator)";
  let failures = ref 0 in
  let sweep hit_pct =
    with_tmp_catalog @@ fun dir ->
    let metrics = Obs_metrics.create () in
    let cat, server = open_server ~metrics ~dir in
    (* prepopulate the hot working set, then capture one canonical
       warm predict per hot key (for the restart byte-compare) *)
    for k = 0 to hot_keys - 1 do
      ignore (ask server (fit_req ~seed:(hot_seed k)))
    done;
    let canonical k = predict_req ~seed:(hot_seed k) ~p:8 in
    let warm =
      List.init hot_keys (fun k -> ask server (canonical k))
    in
    (* the timed sweep *)
    let hit_lat = ref [] and miss_lat = ref [] in
    let hits = ref 0 and misses = ref 0 in
    let state = ref (17 + hit_pct) and fresh = ref 0 in
    for _ = 1 to queries_per_sweep do
      state := lcg !state;
      let roll = !state mod 100 in
      state := lcg !state;
      let line =
        if roll < hit_pct then
          let k = !state mod hot_keys in
          let p = [| 2; 4; 8; 16 |].(!state mod 4) in
          predict_req ~seed:(hot_seed k) ~p
        else begin
          incr fresh;
          predict_req ~seed:(fresh_seed ((1000 * hit_pct) + !fresh)) ~p:8
        end
      in
      let resp, dt = Obs_clock.with_timer (fun () -> ask server line) in
      if is_cached resp then begin
        incr hits;
        hit_lat := dt :: !hit_lat
      end
      else begin
        incr misses;
        miss_lat := dt :: !miss_lat
      end
    done;
    (* identity: a fresh always-cold server must answer the first hot
       keys byte-identically (modulo the cached flag) *)
    let identity =
      with_tmp_catalog @@ fun cold_dir ->
      let cold_metrics = Obs_metrics.create () in
      let cold_cat, cold_server = open_server ~metrics:cold_metrics ~dir:cold_dir in
      let ok =
        List.for_all
          (fun k ->
            let cold = ask cold_server (canonical k) in
            String.equal (normalize_cached cold)
              (normalize_cached (List.nth warm k)))
          [ 0; 1; 2 ]
      in
      Serve.Catalog.close cold_cat;
      ok
    in
    (* warm restart: a second server over the same on-disk index must
       re-serve every hot key as a byte-identical hit *)
    Serve.Catalog.close cat;
    let restart_metrics = Obs_metrics.create () in
    let cat2, server2 = open_server ~metrics:restart_metrics ~dir in
    let restart_identity =
      List.for_all
        (fun k ->
          let again = ask server2 (canonical k) in
          is_cached again && String.equal again (List.nth warm k))
        (List.init hot_keys Fun.id)
    in
    let restart_hits =
      Option.value ~default:0
        (Obs_metrics.find_counter
           (Obs_metrics.snapshot restart_metrics)
           "serve.hits")
    in
    Serve.Catalog.close cat2;
    let snap = Obs_metrics.snapshot metrics in
    let counter n = Option.value ~default:0 (Obs_metrics.find_counter snap n) in
    let med_hit = median !hit_lat and med_miss = median !miss_lat in
    let speedup =
      if !hits > 0 && !misses > 0 then med_miss /. med_hit else nan
    in
    if not identity then incr failures;
    if not restart_identity then incr failures;
    Fmt.pr
      "  hit%%=%2d  %3d hits  %3d misses  med(hit) %9.6f s  med(miss) \
       %9.6f s  speedup %8.1fx%s%s@."
      hit_pct !hits !misses med_hit med_miss speedup
      (if identity then "" else "  << NOT IDENTICAL TO COLD")
      (if restart_identity then "" else "  << RESTART NOT IDENTICAL");
    ( hit_pct,
      J.Obj
        [
          ("hit_pct", J.Int hit_pct);
          ("queries", J.Int queries_per_sweep);
          ("hits", J.Int !hits);
          ("misses", J.Int !misses);
          ("evictions", J.Int (counter "serve.evictions"));
          ("identity", J.Bool identity);
          ("restart_hits", J.Int restart_hits);
          ("restart_identity", J.Bool restart_identity);
          ("med_hit_s", fnum med_hit);
          ("med_miss_s", fnum med_miss);
          ("speedup", fnum speedup);
        ],
      speedup )
  in
  let rows = List.map sweep hit_axis in
  let speedup95 =
    List.fold_left
      (fun acc (pct, _, s) -> if pct = 95 then s else acc)
      nan rows
  in
  let target_met = speedup95 >= 70. in
  Exp_common.note "hit-rate-95 sweep: %.1fx median-latency speedup (target \
                   >= 70x)" speedup95;
  Exp_common.emit_json ~name:"serve"
    [
      ("hot_keys", J.Int hot_keys);
      ("sweeps", J.List (List.map (fun (_, row, _) -> row) rows));
      ("speedup_95", fnum speedup95);
      ("speedup_target_met", J.Bool target_met);
    ];
  if !failures > 0 then begin
    Fmt.epr "serve: %d identity check(s) failed@." !failures;
    exit 1
  end;
  if not target_met then begin
    Fmt.epr
      "serve: hit-rate-95 speedup %.1fx is below the 70x target@." speedup95;
    exit 1
  end
