(** Tests of the model-serving layer: catalog key stability, exact entry
    round-trips, LRU/disk behavior across restarts, invalidation, torn
    and corrupt index handling, the daemon's batch semantics and
    admission control, socket bind refusal, and the serve.* metrics /
    event / protocol-op vocabularies staying in sync with the docs. *)

module Cat = Serve.Catalog
module Server = Serve.Server
module Protocol = Serve.Protocol
module Exp = Measure.Experiment
module Camp = Measure.Campaign
module Fault = Measure.Fault
module Instr = Measure.Instrument

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let with_tmp_dir f =
  let dir = Filename.temp_file "suite_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let design =
  { Exp.grid = [ ("p", [ 2.; 4.; 8. ]); ("size", [ 16. ]) ];
    reps = 2; mode = Instr.Full; sigma = 0.02; seed = 42 }

let plan = Fault.none
let retry = Camp.default_retry

(* An entry with awkward floats — the round trip must be exact, so use
   values that are not short decimals. *)
let entry ?(key = "deadbeef") ?(app = "lulesh") ?(const = 0.1) () =
  {
    Cat.e_key = key;
    e_app = app;
    e_model =
      {
        Model.Expr.const;
        terms =
          [
            {
              Model.Expr.coeff = 1. /. 3.;
              factors = [ ("p", { Model.Expr.expo = 2. /. 3.; logexp = 1 }) ];
            };
          ];
      };
    e_error = 0.30000000000000004;
    e_rss = 1.2345678901234567e-07;
    e_hypotheses = 23;
    e_rejected = 1;
    e_runs = 12;
    e_core_hours = 0.2;
    e_attempts = 14;
    e_retries = 2;
    e_abandoned = 0;
    e_faults = [ ("crash", 3); ("hang", 1) ];
    e_wasted_core_hours = 0.017;
    e_backoff_core_hours = 0.05;
  }

(* -- keys --------------------------------------------------------------------- *)

let test_key_stability () =
  let k () =
    Cat.key ~app_name:"lulesh" ~program_text:"func @main() {}" ~design ~plan
      ~retry
  in
  Alcotest.(check string) "same identity, same key" (k ()) (k ());
  let base = k () in
  List.iter
    (fun (what, k') ->
      Alcotest.(check bool) (what ^ " changes the key") true (base <> k'))
    [
      ( "program text",
        Cat.key ~app_name:"lulesh" ~program_text:"func @main(n) {}" ~design
          ~plan ~retry );
      ( "noise seed",
        Cat.key ~app_name:"lulesh" ~program_text:"func @main() {}"
          ~design:{ design with Exp.seed = 43 } ~plan ~retry );
      ( "fault plan",
        Cat.key ~app_name:"lulesh" ~program_text:"func @main() {}" ~design
          ~plan:{ plan with Fault.fp_crash = 0.1 } ~retry );
      ( "retry policy",
        Cat.key ~app_name:"lulesh" ~program_text:"func @main() {}" ~design
          ~plan ~retry:{ retry with Camp.rt_max_attempts = 5 } );
    ]

(* One identity per served app, keyed on the registry grid.  The hex
   literals were recorded before the daemon took its program digest
   from the registry: a key that moves by a byte orphans every catalog
   an earlier build wrote. *)
let test_key_bytes_pinned () =
  let plan =
    match Fault.of_spec "crash=0.05,hang=0.02,straggler=0.05,seed=7" with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (name, pinned) ->
      let r = Option.get (Serve.Registry.find name) in
      let design =
        { Exp.grid = r.Serve.Registry.r_grid; reps = 5; mode = Instr.Full;
          sigma = 0.02; seed = 42 }
      in
      let app_name = r.Serve.Registry.r_app.Measure.Spec.aname in
      let from_text =
        Cat.key ~app_name ~program_text:(Serve.Registry.program_text r)
          ~design ~plan ~retry
      in
      let digest = Serve.Registry.program_digest r in
      Alcotest.(check string) (name ^ " key bytes") pinned from_text;
      Alcotest.(check string)
        (name ^ " key from the registry digest")
        from_text
        (Cat.key_of_digest ~app_name ~program_digest:digest ~design ~plan
           ~retry);
      Alcotest.(check bool)
        (name ^ " digest computed once")
        true
        (Serve.Registry.program_digest r == digest))
    [ ("lulesh", "7ad3193bf9c598d2b79c75c3a7bda195");
      ("milc", "f29e0a73e2b80f084cf66bf9636d3afd");
      ("minicg", "82502b8273d334a06e15f262394edb5b") ]

(* -- entry round-trip --------------------------------------------------------- *)

let test_entry_roundtrip () =
  let e = entry () in
  let line = Cat.entry_to_line e in
  Alcotest.(check bool) "one line" false (contains line "\n");
  (match Cat.entry_of_line line with
  | Error err -> Alcotest.fail err
  | Ok e' ->
    Alcotest.(check bool) "entry round-trips bit-identically" true (e = e'));
  match Cat.entry_of_line "{\"key\":17}" with
  | Ok _ -> Alcotest.fail "truncated entry accepted"
  | Error _ -> ()

(* -- store -------------------------------------------------------------------- *)

let test_open_requires_dir () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "no-such-catalog" in
  match Cat.open_ ~dir () with
  | Ok _ -> Alcotest.fail "missing catalog directory accepted"
  | Error e ->
    Alcotest.(check bool) "error names the path" true (contains e dir)

let test_insert_find_reopen () =
  with_tmp_dir @@ fun dir ->
  let a = entry ~key:"aaaa" ~const:0.1 () in
  let b = entry ~key:"bbbb" ~app:"milc" ~const:0.2 () in
  (match Cat.open_ ~dir () with
  | Error e -> Alcotest.fail e
  | Ok cat ->
    Cat.insert cat a;
    Cat.insert cat b;
    Alcotest.(check int) "two persisted" 2 (Cat.length cat);
    Alcotest.(check bool) "find a" true (Cat.find cat "aaaa" = Some a);
    Alcotest.(check bool) "mem b" true (Cat.mem cat "bbbb");
    Alcotest.(check bool) "absent key" true (Cat.find cat "cccc" = None);
    Cat.close cat);
  (* the restart path: everything decodes back from disk, bit-identical *)
  match Cat.open_ ~dir () with
  | Error e -> Alcotest.fail e
  | Ok cat ->
    Alcotest.(check int) "reopen sees both" 2 (Cat.length cat);
    Alcotest.(check int) "nothing decoded yet" 0 (Cat.resident cat);
    Alcotest.(check bool) "a restored exactly" true (Cat.find cat "aaaa" = Some a);
    Alcotest.(check bool) "b restored exactly" true (Cat.find cat "bbbb" = Some b);
    Cat.close cat

let test_duplicate_key_last_write_wins () =
  with_tmp_dir @@ fun dir ->
  (match Cat.open_ ~dir () with
  | Error e -> Alcotest.fail e
  | Ok cat ->
    Cat.insert cat (entry ~key:"k" ~const:1.0 ());
    Cat.insert cat (entry ~key:"k" ~const:2.0 ());
    Cat.close cat);
  match Cat.open_ ~dir () with
  | Error e -> Alcotest.fail e
  | Ok cat ->
    Alcotest.(check int) "one key" 1 (Cat.length cat);
    (match Cat.find cat "k" with
    | Some e ->
      Alcotest.(check (float 0.)) "later write wins" 2.0
        e.Cat.e_model.Model.Expr.const
    | None -> Alcotest.fail "key lost");
    Cat.close cat

let test_lru_eviction () =
  with_tmp_dir @@ fun dir ->
  let metrics = Obs_metrics.create () in
  let events = Obs_events.create ~ts:false () in
  match Cat.open_ ~metrics ~events ~capacity:2 ~dir () with
  | Error e -> Alcotest.fail e
  | Ok cat ->
    List.iter
      (fun k -> Cat.insert cat (entry ~key:k ()))
      [ "k1"; "k2"; "k3" ];
    Alcotest.(check int) "LRU holds capacity" 2 (Cat.resident cat);
    Alcotest.(check int) "disk holds everything" 3 (Cat.length cat);
    (* the evicted key is still served — decoded from disk and promoted,
       pushing out the now-least-recent k2 *)
    Alcotest.(check bool) "evicted key re-decodes" true
      (Cat.find cat "k1" <> None);
    Alcotest.(check int) "LRU still bounded" 2 (Cat.resident cat);
    let snap = Obs_metrics.snapshot metrics in
    Alcotest.(check int) "evictions counted" 2
      (Option.value ~default:0 (Obs_metrics.find_counter snap "serve.evictions"));
    Alcotest.(check bool) "evict event emitted" true
      (List.exists
         (fun l -> contains l "serve.evict")
         (Obs_events.lines events));
    Cat.close cat

let test_torn_trailing_line_tolerated () =
  with_tmp_dir @@ fun dir ->
  (match Cat.open_ ~dir () with
  | Error e -> Alcotest.fail e
  | Ok cat ->
    Cat.insert cat (entry ~key:"whole" ());
    Cat.close cat);
  let index = Filename.concat dir "catalog.jsonl" in
  let oc = open_out_gen [ Open_append ] 0o600 index in
  output_string oc "{\"key\":\"torn";
  close_out oc;
  match Cat.open_ ~dir () with
  | Error e -> Alcotest.fail ("torn trailing line refused: " ^ e)
  | Ok cat ->
    Alcotest.(check int) "only the whole entry survives" 1 (Cat.length cat);
    Alcotest.(check bool) "whole entry intact" true (Cat.mem cat "whole");
    Cat.close cat

let test_corrupt_middle_line_refused () =
  with_tmp_dir @@ fun dir ->
  (match Cat.open_ ~dir () with
  | Error e -> Alcotest.fail e
  | Ok cat ->
    Cat.insert cat (entry ~key:"first" ());
    Cat.insert cat (entry ~key:"second" ());
    Cat.close cat);
  let index = Filename.concat dir "catalog.jsonl" in
  let lines = String.split_on_char '\n' (read_file index) in
  let oc = open_out_bin index in
  List.iter
    (fun l ->
      if l <> "" then begin
        output_string oc (if contains l "first" then "{\"key\":" else l);
        output_char oc '\n'
      end)
    lines;
  close_out oc;
  match Cat.open_ ~dir () with
  | Ok _ -> Alcotest.fail "corrupt index accepted"
  | Error e ->
    Alcotest.(check bool) "error names the index line" true
      (contains e "catalog.jsonl:1")

let test_invalidate () =
  with_tmp_dir @@ fun dir ->
  (match Cat.open_ ~dir () with
  | Error e -> Alcotest.fail e
  | Ok cat ->
    Cat.insert cat (entry ~key:"keep" ~app:"milc" ());
    Cat.insert cat (entry ~key:"drop" ());
    Cat.insert cat (entry ~key:"drop2" ());
    Alcotest.(check bool) "absent key: false" false
      (Cat.invalidate cat ~key:"ghost");
    Alcotest.(check bool) "present key removed" true
      (Cat.invalidate cat ~key:"drop");
    Alcotest.(check bool) "gone from memory and disk" false
      (Cat.mem cat "drop");
    Alcotest.(check int) "invalidate_app sweeps the rest" 1
      (Cat.invalidate_app cat ~app:"lulesh");
    Cat.close cat);
  (* the rewrite is durable: a reopen must not resurrect anything *)
  match Cat.open_ ~dir () with
  | Error e -> Alcotest.fail e
  | Ok cat ->
    Alcotest.(check int) "only the survivor persists" 1 (Cat.length cat);
    Alcotest.(check bool) "survivor intact" true (Cat.mem cat "keep");
    Cat.close cat

(* A predict answer prints its entry's model.  The catalog prints each
   key's model once and keeps the text with the key: the same string
   comes back after an LRU eviction and a decode from disk; a re-insert
   or an invalidation discards it. *)
let test_model_text_per_key () =
  with_tmp_dir @@ fun dir ->
  match Cat.open_ ~capacity:1 ~dir () with
  | Error e -> Alcotest.fail e
  | Ok cat ->
    let printed (e : Cat.entry) = Model.Expr.to_string e.Cat.e_model in
    let a = entry ~key:"a" ~const:0.1 () in
    Cat.insert cat a;
    let text = Cat.model_text cat a in
    Alcotest.(check string) "the model's text" (printed a) text;
    Cat.insert cat (entry ~key:"b" ());
    Alcotest.(check int) "a evicted" 1 (Cat.resident cat);
    let decoded = Option.get (Cat.find cat "a") in
    Alcotest.(check bool) "kept across eviction and decode" true
      (Cat.model_text cat decoded == text);
    let a' = entry ~key:"a" ~const:0.5 () in
    Cat.insert cat a';
    Alcotest.(check string) "re-insert prints the new model" (printed a')
      (Cat.model_text cat a');
    Alcotest.(check bool) "invalidated" true (Cat.invalidate cat ~key:"a");
    Alcotest.(check bool) "an invalidated key keeps nothing" false
      (Cat.model_text cat a' == Cat.model_text cat a');
    Cat.close cat

(* -- the daemon (in-process) -------------------------------------------------- *)

(* Tiny but real fits: a 2-point grid, 2 repetitions. *)
let req ?(app = "lulesh") ?(seed = 42) ?(extra = "") op =
  Printf.sprintf
    {|{"op":"%s","app":"%s"%s,"grid":{"p":[2,4],"size":[16],"r":[8]},"reps":2,"seed":%d}|}
    op app extra seed

let with_server ?max_core_hours ?metrics f =
  with_tmp_dir @@ fun dir ->
  let metrics = match metrics with Some m -> m | None -> Obs_metrics.create () in
  match Cat.open_ ~metrics ~dir () with
  | Error e -> Alcotest.fail e
  | Ok cat ->
    Fun.protect
      ~finally:(fun () -> Cat.close cat)
      (fun () ->
        f dir (Server.create ~metrics ?max_core_hours ~catalog:cat ()))

let counter metrics name =
  Option.value ~default:0
    (Obs_metrics.find_counter (Obs_metrics.snapshot metrics) name)

let test_batch_semantics () =
  let metrics = Obs_metrics.create () in
  with_server ~metrics @@ fun _dir server ->
  (* Same key three times in one batch (one fit + predict + predict) and
     one malformed line in the middle: the fit runs once, the duplicates
     ride it as hits, the garbage gets a one-line error, and every
     response comes back in request order. *)
  let lines =
    [
      req "fit";
      req ~extra:{|,"coords":{"p":2,"size":16}|} "predict";
      "{\"op\":";
      req ~extra:{|,"coords":{"p":4,"size":16}|} "predict";
    ]
  in
  let responses, stop = Server.handle_batch server lines in
  Alcotest.(check bool) "no shutdown" false stop;
  Alcotest.(check int) "one response per request" (List.length lines)
    (List.length responses);
  (match responses with
  | [ r_fit; r_p1; r_err; r_p2 ] ->
    Alcotest.(check bool) "fit is the miss" true
      (contains r_fit {|"cached":false|});
    Alcotest.(check bool) "duplicate key rides the fit" true
      (contains r_p1 {|"cached":true|});
    Alcotest.(check bool) "malformed line is a one-line error" true
      (contains r_err {|"ok":false|} && not (contains r_err "\n"));
    Alcotest.(check bool) "second predict also a hit" true
      (contains r_p2 {|"cached":true|})
  | _ -> Alcotest.fail "wrong response arity");
  Alcotest.(check int) "one miss" 1 (counter metrics "serve.misses");
  Alcotest.(check int) "two hits" 2 (counter metrics "serve.hits");
  Alcotest.(check int) "four requests" 4 (counter metrics "serve.requests");
  (* bit-identity with the one-line-at-a-time path on a fresh catalog *)
  let serial =
    let metrics2 = Obs_metrics.create () in
    with_server ~metrics:metrics2 @@ fun _dir server2 ->
    List.map (fun l -> fst (Server.handle_line server2 l)) lines
  in
  List.iteri
    (fun i (batched, one_at_a_time) ->
      (* the only allowed difference: handling lines separately makes the
         duplicate-key fit a hit of the already-memoized entry, which is
         exactly the same bytes *)
      Alcotest.(check string)
        (Printf.sprintf "response %d identical to serial handling" i)
        one_at_a_time batched)
    (List.combine responses serial)

let test_unknown_app_and_bad_faults () =
  with_server @@ fun _dir server ->
  let r1, _ = Server.handle_line server (req ~app:"nosuchapp" "fit") in
  Alcotest.(check bool) "unknown app named" true
    (contains r1 {|"ok":false|} && contains r1 "nosuchapp");
  let r2, _ =
    Server.handle_line server (req ~extra:{|,"faults":"frob=1"|} "fit")
  in
  Alcotest.(check bool) "bad fault spec is a clean error" true
    (contains r2 {|"ok":false|});
  (* the server survives both *)
  let r3, _ = Server.handle_line server (req "fit") in
  Alcotest.(check bool) "still serving" true (contains r3 {|"ok":true|})

let test_admission_control () =
  let metrics = Obs_metrics.create () in
  with_server ~metrics @@ fun dir server ->
  ignore (Server.handle_line server (req "fit"));
  (* a budget-zero server over the same catalog: hits free, fits refused *)
  match Cat.open_ ~metrics ~dir () with
  | Error e -> Alcotest.fail e
  | Ok cat2 ->
    Fun.protect
      ~finally:(fun () -> Cat.close cat2)
      (fun () ->
        let broke =
          Server.create ~metrics ~max_core_hours:0. ~catalog:cat2 ()
        in
        let hit, _ =
          Server.handle_line broke
            (req ~extra:{|,"coords":{"p":2,"size":16}|} "predict")
        in
        Alcotest.(check bool) "hit served under a spent budget" true
          (contains hit {|"cached":true|});
        let miss, _ = Server.handle_line broke (req ~seed:99 "fit") in
        Alcotest.(check bool) "cold fit refused, budget named" true
          (contains miss {|"ok":false|}
          && contains miss "core-hour budget exhausted");
        Alcotest.(check int) "rejection counted" 1
          (counter metrics "serve.rejected");
        Alcotest.(check (float 0.)) "nothing charged" 0.
          (Server.spent_core_hours broke))

let test_stats_and_invalidate_ops () =
  with_server @@ fun _dir server ->
  ignore (Server.handle_line server (req "fit"));
  let stats, _ = Server.handle_line server {|{"op":"stats"}|} in
  List.iter
    (fun field ->
      Alcotest.(check bool) (Printf.sprintf "stats has %S" field) true
        (contains stats (Printf.sprintf "\"%s\"" field)))
    [ "requests"; "hits"; "misses"; "hit_rate"; "resident"; "persisted";
      "core_hours_spent" ];
  let inv, _ =
    Server.handle_line server {|{"op":"invalidate","app":"lulesh"}|}
  in
  Alcotest.(check bool) "invalidate reports the removal" true
    (contains inv {|"removed":1|});
  let inv2, _ =
    Server.handle_line server {|{"op":"invalidate","app":"lulesh"}|}
  in
  Alcotest.(check bool) "second invalidate removes nothing" true
    (contains inv2 {|"removed":0|});
  let bye, stop = Server.handle_line server {|{"op":"shutdown"}|} in
  Alcotest.(check bool) "shutdown acknowledged" true (contains bye {|"ok":true|});
  Alcotest.(check bool) "shutdown stops the loop" true stop

(* -- sockets ------------------------------------------------------------------ *)

let test_unix_socket_bind_rules () =
  let path = Filename.temp_file "serve_sock" ".sock" in
  Sys.remove path;
  let ep = Server.Unix_socket path in
  (match Server.bind_endpoint ep with
  | Error e -> Alcotest.fail e
  | Ok fd ->
    (* a live listener on the same path must be refused by name *)
    (match Server.bind_endpoint ep with
    | Ok fd2 ->
      Unix.close fd2;
      Alcotest.fail "double bind accepted"
    | Error e ->
      Alcotest.(check bool) "refusal names the socket path" true
        (contains e path));
    (* leave a stale socket file behind: close without unlinking *)
    Unix.close fd);
  Alcotest.(check bool) "stale socket file left behind" true
    (Sys.file_exists path);
  (match Server.bind_endpoint ep with
  | Error e -> Alcotest.fail ("stale socket not rebound: " ^ e)
  | Ok fd -> Server.close_endpoint ep fd);
  Alcotest.(check bool) "close_endpoint unlinks the path" false
    (Sys.file_exists path)

let test_connect_gives_up () =
  match
    Server.connect ~attempts:2
      (Server.Unix_socket "/tmp/serve-no-such-daemon.sock")
  with
  | Ok _ -> Alcotest.fail "connected to nothing"
  | Error e -> Alcotest.(check bool) "error mentions connect" true (e <> "")

(* -- non-finite predictions and over-long request lines ---------------------- *)

let parse_response resp =
  match Obs_json.parse resp with
  | Ok j -> j
  | Error e -> Alcotest.fail (Printf.sprintf "response %S: %s" resp e)

(* A model that is not finite at the asked coordinates gets one error
   line naming them, never a number JSON cannot carry. *)
let test_predict_non_finite () =
  with_tmp_dir @@ fun dir ->
  match Cat.open_ ~dir () with
  | Error e -> Alcotest.fail e
  | Ok cat ->
    Fun.protect ~finally:(fun () -> Cat.close cat) @@ fun () ->
    let server = Server.create ~catalog:cat () in
    let fit, _ = Server.handle_line server (req "fit") in
    let key =
      match Obs_json.member "key" (parse_response fit) with
      | Some (Obs_json.Str k) -> k
      | _ -> Alcotest.fail fit
    in
    (* 0.1 + p^(2/3)·log2(p)/3: NaN at p = 0 and at p < 0 *)
    Cat.insert cat (entry ~key ());
    List.iter
      (fun (coords, named) ->
        let resp, _ =
          Server.handle_line server
            (req ~extra:(Printf.sprintf {|,"coords":%s|} coords) "predict")
        in
        let j = parse_response resp in
        Alcotest.(check bool) (resp ^ " is an error") true
          (Obs_json.member "ok" j = Some (Obs_json.Bool false));
        Alcotest.(check bool) (resp ^ " names the coordinates") true
          (contains resp named))
      [ ({|{"p":0,"size":16}|}, "p=0,size=16");
        ({|{"p":-4,"size":16}|}, "p=-4,size=16") ]

(* A request line past the limit is answered with one error naming the
   limit; the rest of that line is dropped and the next request on the
   same connection is answered. *)
let test_request_line_limit () =
  with_server @@ fun dir server ->
  let ep = Server.Unix_socket (Filename.concat dir "serve.sock") in
  match Server.bind_endpoint ep with
  | Error e -> Alcotest.fail e
  | Ok fd ->
    let loop =
      Domain.spawn (fun () -> Server.serve_loop ~max_requests:2 server fd)
    in
    let responses =
      Fun.protect
        ~finally:(fun () ->
          Domain.join loop;
          Server.close_endpoint ep fd)
        (fun () ->
          match Server.connect ep with
          | Error e -> Alcotest.fail e
          | Ok (ic, oc) ->
            Unix.setsockopt_float (Unix.descr_of_in_channel ic)
              Unix.SO_RCVTIMEO 60.;
            output_string oc (String.make (Server.max_line_bytes + 1) 'x');
            output_string oc "\n{\"op\":\"stats\"}\n";
            flush oc;
            let first = input_line ic in
            let second = input_line ic in
            close_in ic;
            (first, second))
    in
    let over, stats = responses in
    Alcotest.(check bool) (over ^ " names the limit") true
      (Obs_json.member "ok" (parse_response over) = Some (Obs_json.Bool false)
      && contains over (string_of_int Server.max_line_bytes));
    Alcotest.(check bool) (stats ^ " answers stats") true
      (contains stats {|"op":"stats"|})

(* A design that measures nothing, whose noise is not finite, or whose
   retry policy cannot run is refused by name before it is admitted, and
   nothing reaches the catalog. *)
let test_bad_design_refused () =
  with_server @@ fun _dir server ->
  List.iter
    (fun (line, field) ->
      let resp, _ = Server.handle_line server line in
      Alcotest.(check bool) (resp ^ " refuses " ^ field) true
        (contains resp {|"ok":false|} && contains resp field))
    [ ({|{"op":"fit","app":"minicg","reps":-3}|}, "reps must be >= 1 (got -3)");
      ({|{"op":"fit","app":"minicg","sigma":1e400}|}, "sigma must be finite");
      ({|{"op":"fit","app":"minicg","retries":0}|}, "rt_max_attempts") ];
  let stats, _ = Server.handle_line server {|{"op":"stats"}|} in
  Alcotest.(check bool) (stats ^ ": catalog stays empty") true
    (contains stats {|"resident":0,"persisted":0|});
  Alcotest.(check bool) (stats ^ ": no fit admitted") true
    (contains stats {|"misses":0|})

(* -- documentation drift ------------------------------------------------------ *)

let doc_lists path what vocabulary () =
  let path =
    List.find Sys.file_exists [ "../" ^ path; path ]
  in
  let doc = read_file path in
  List.iter
    (fun (name, descr) ->
      let row = Printf.sprintf "| `%s` | %s |" name descr in
      Alcotest.(check bool)
        (Printf.sprintf "%s lists %s %s with its meaning" path what name)
        true (contains doc row))
    vocabulary

(* Every index line must decode: a torn fragment left in place would
   turn into mid-file corruption once something is appended after it. *)
let check_index_decodes dir =
  List.iter
    (fun (n, line) ->
      match Cat.entry_of_line line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "catalog.jsonl:%d does not decode: %s" n e)
    (Obs_json.read_lines (Filename.concat dir "catalog.jsonl"))

let insert_all dir entries =
  match Cat.open_ ~dir () with
  | Error e -> Alcotest.fail e
  | Ok cat ->
    List.iter (Cat.insert cat) entries;
    Cat.close cat

let check_holds dir keys =
  match Cat.open_ ~dir () with
  | Error e -> Alcotest.fail ("reopen refused: " ^ e)
  | Ok cat ->
    Alcotest.(check (list string)) "entries held" keys
      (List.filter (Cat.mem cat) keys);
    Alcotest.(check int) "nothing else" (List.length keys) (Cat.length cat);
    Cat.close cat;
    check_index_decodes dir

(* The on-disk state of a daemon killed mid-insert: a fragment with no
   newline.  The next open must cut it before appending; otherwise the
   next entry is glued onto it (one insert: that entry is lost as the
   torn tail) or buries it mid-file (two: the reopen is refused). *)
let test_torn_tail_cut_before_append () =
  with_tmp_dir @@ fun dir ->
  insert_all dir [ entry ~key:"whole" () ];
  let oc = open_out_gen [ Open_append ] 0o600 (Filename.concat dir "catalog.jsonl") in
  output_string oc "{\"key\":\"deadbeef\",\"app\":\"lul";
  close_out oc;
  insert_all dir [ entry ~key:"second" (); entry ~key:"third" () ];
  check_holds dir [ "whole"; "second"; "third" ]

(* A kill can stop the index writer after any byte: cut a three-entry
   index at every offset after its first line, open it, insert a fourth
   entry, and reopen.  The entries whose lines were whole survive, and
   so does the fourth. *)
let test_every_index_prefix_reopens () =
  with_tmp_dir @@ fun dir ->
  let keys = [ "k1"; "k2"; "k3" ] in
  insert_all dir (List.map (fun key -> entry ~key ()) keys);
  let index = Filename.concat dir "catalog.jsonl" in
  let bytes = read_file index in
  (* the offset where each entry's line content ends *)
  let ends =
    List.rev
      (snd
         (List.fold_left
            (fun (from, acc) key ->
              let nl = String.index_from bytes from '\n' in
              (nl + 1, (key, nl) :: acc))
            (0, []) keys))
  in
  for cut = String.index bytes '\n' + 1 to String.length bytes do
    let oc = open_out_bin index in
    output_string oc (String.sub bytes 0 cut);
    close_out oc;
    insert_all dir [ entry ~key:"k4" () ];
    check_holds dir
      (List.filter_map
         (fun (key, e) -> if e <= cut then Some key else None)
         ends
      @ [ "k4" ])
  done

let tests =
  [
    Alcotest.test_case "catalog key is stable and sensitive" `Quick
      test_key_stability;
    Alcotest.test_case "catalog key bytes pinned per served app" `Quick
      test_key_bytes_pinned;
    Alcotest.test_case "entry line round-trips bit-identically" `Quick
      test_entry_roundtrip;
    Alcotest.test_case "open refuses a missing directory" `Quick
      test_open_requires_dir;
    Alcotest.test_case "insert/find survive a reopen exactly" `Quick
      test_insert_find_reopen;
    Alcotest.test_case "duplicate keys: last write wins" `Quick
      test_duplicate_key_last_write_wins;
    Alcotest.test_case "LRU evicts decoded entries, disk keeps all" `Quick
      test_lru_eviction;
    Alcotest.test_case "torn trailing index line tolerated" `Quick
      test_torn_trailing_line_tolerated;
    Alcotest.test_case "corrupt index line refused by name" `Quick
      test_corrupt_middle_line_refused;
    Alcotest.test_case "invalidate rewrites the index durably" `Quick
      test_invalidate;
    Alcotest.test_case "model text printed once per key" `Quick
      test_model_text_per_key;
    Alcotest.test_case "batch: dup keys fit once, order kept" `Quick
      test_batch_semantics;
    Alcotest.test_case "unknown app / bad faults are clean errors" `Quick
      test_unknown_app_and_bad_faults;
    Alcotest.test_case "admission control spares hits" `Quick
      test_admission_control;
    Alcotest.test_case "stats, invalidate and shutdown ops" `Quick
      test_stats_and_invalidate_ops;
    Alcotest.test_case "unix socket bind/stale/refuse rules" `Quick
      test_unix_socket_bind_rules;
    Alcotest.test_case "client connect gives up cleanly" `Quick
      test_connect_gives_up;
    Alcotest.test_case "serve counter table in sync with doc" `Quick
      (doc_lists "doc/OBSERVABILITY.md" "counter" Server.counters);
    Alcotest.test_case "serve event table in sync with doc" `Quick
      (doc_lists "doc/OBSERVABILITY.md" "event" Server.event_names);
    Alcotest.test_case "protocol op table in sync with doc" `Quick
      (doc_lists "doc/SERVE.md" "op" Protocol.ops);
    Alcotest.test_case "non-finite prediction is an error" `Quick
      test_predict_non_finite;
    Alcotest.test_case "over-long request line: error, then next" `Quick
      test_request_line_limit;
    Alcotest.test_case "bad design refused, nothing memoized" `Quick
      test_bad_design_refused;
    Alcotest.test_case "torn index tail cut before the next append" `Quick
      test_torn_tail_cut_before_append;
    Alcotest.test_case "every byte prefix of the index reopens" `Quick
      test_every_index_prefix_reopens;
  ]
