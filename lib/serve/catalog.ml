(* The content-addressed model catalog.  An entry is the full answer a
   cold fit produces — model, fit quality, campaign counters — written
   as one JSON line via Obs_json (exact float round-trip), so a
   cache hit from memory, disk, or a restarted process is bit-identical
   to refitting. *)

module J = Obs_json

let default_capacity = 64

(* -- keys ---------------------------------------------------------- *)

let digest_text text = Digest.to_hex (Digest.string text)

let key_of_digest ~app_name ~program_digest ~design ~plan ~retry =
  let header = Measure.Campaign.header_line ~app_name ~plan ~retry design in
  digest_text (program_digest ^ "\n" ^ header)

let key ~app_name ~program_text ~design ~plan ~retry =
  key_of_digest ~app_name ~program_digest:(digest_text program_text) ~design
    ~plan ~retry

(* -- entries ------------------------------------------------------- *)

type entry = {
  e_key : string;
  e_app : string;
  e_model : Model.Expr.model;
  e_error : float;
  e_rss : float;
  e_hypotheses : int;
  e_rejected : int;
  e_runs : int;
  e_core_hours : float;
  e_attempts : int;
  e_retries : int;
  e_abandoned : int;
  e_faults : (string * int) list;
  e_wasted_core_hours : float;
  e_backoff_core_hours : float;
}

let total_core_hours e =
  e.e_core_hours +. e.e_wasted_core_hours +. e.e_backoff_core_hours

let model_to_json (m : Model.Expr.model) =
  J.Obj
    [
      ("const", J.Float m.const);
      ( "terms",
        J.List
          (List.map
             (fun (t : Model.Expr.compound_term) ->
               J.Obj
                 [
                   ("coeff", J.Float t.coeff);
                   ( "factors",
                     J.List
                       (List.map
                          (fun (p, (s : Model.Expr.simple_term)) ->
                            J.Obj
                              [
                                ("param", J.Str p);
                                ("expo", J.Float s.expo);
                                ("logexp", J.Int s.logexp);
                              ])
                          t.factors) );
                 ])
             m.terms) );
    ]

let entry_json e =
  J.Obj
    [
      ("key", J.Str e.e_key);
      ("app", J.Str e.e_app);
      ("model", model_to_json e.e_model);
      ("error", J.Float e.e_error);
      ("rss", J.Float e.e_rss);
      ("hypotheses", J.Int e.e_hypotheses);
      ("rejected", J.Int e.e_rejected);
      ("runs", J.Int e.e_runs);
      ("core_hours", J.Float e.e_core_hours);
      ("attempts", J.Int e.e_attempts);
      ("retries", J.Int e.e_retries);
      ("abandoned", J.Int e.e_abandoned);
      ("faults", J.Obj (List.map (fun (k, n) -> (k, J.Int n)) e.e_faults));
      ("wasted_core_hours", J.Float e.e_wasted_core_hours);
      ("backoff_core_hours", J.Float e.e_backoff_core_hours);
    ]

let entry_to_line e = J.to_string (entry_json e)

let ( let* ) = Result.bind

let factor_of_json j =
  let* p = J.field "param" J.str j in
  let* expo = J.field "expo" J.float j in
  let* logexp = J.field "logexp" J.int j in
  Ok (p, { Model.Expr.expo; logexp })

let term_of_json j =
  let* coeff = J.field "coeff" J.float j in
  let* fs = J.field "factors" J.list j in
  let* factors = J.each factor_of_json fs in
  Ok { Model.Expr.coeff; factors }

let model_of_json j =
  let* const = J.field "const" J.float j in
  let* ts = J.field "terms" J.list j in
  let* terms = J.each term_of_json ts in
  Ok { Model.Expr.const; terms }

let entry_of_line line =
  let* j = J.parse line in
  let* e_key = J.field "key" J.str j in
  let* e_app = J.field "app" J.str j in
  (* the model's own fields name themselves in its errors *)
  let* m = J.field "model" Result.ok j in
  let* e_model = model_of_json m in
  let* e_error = J.field "error" J.float j in
  let* e_rss = J.field "rss" J.float j in
  let* e_hypotheses = J.field "hypotheses" J.int j in
  let* e_rejected = J.field "rejected" J.int j in
  let* e_runs = J.field "runs" J.int j in
  let* e_core_hours = J.field "core_hours" J.float j in
  let* e_attempts = J.field "attempts" J.int j in
  let* e_retries = J.field "retries" J.int j in
  let* e_abandoned = J.field "abandoned" J.int j in
  let* faults = J.field "faults" J.obj j in
  let* e_faults =
    J.each
      (fun (k, v) ->
        Result.map
          (fun n -> (k, n))
          (J.within (Printf.sprintf "fault %S" k) J.int v))
      faults
  in
  let* e_wasted_core_hours = J.field "wasted_core_hours" J.float j in
  let* e_backoff_core_hours = J.field "backoff_core_hours" J.float j in
  Ok
    {
      e_key;
      e_app;
      e_model;
      e_error;
      e_rss;
      e_hypotheses;
      e_rejected;
      e_runs;
      e_core_hours;
      e_attempts;
      e_retries;
      e_abandoned;
      e_faults;
      e_wasted_core_hours;
      e_backoff_core_hours;
    }

(* -- the cold path ------------------------------------------------- *)

let fit ~app ~machine ~design ~plan ~retry ~key () =
  let report = Measure.Campaign.run ~plan ~retry app machine design in
  let result, rejected = Measure.Campaign.total_fit design report.cp_runs in
  {
    e_key = key;
    e_app = app.Measure.Spec.aname;
    e_model = result.model;
    e_error = result.error;
    e_rss = result.rss;
    e_hypotheses = result.hypotheses_tried;
    e_rejected = rejected;
    e_runs = List.length report.cp_runs;
    e_core_hours = Measure.Experiment.core_hours report.cp_runs;
    e_attempts = report.cp_attempts;
    e_retries = report.cp_retries;
    e_abandoned = report.cp_abandoned;
    e_faults = report.cp_faults;
    e_wasted_core_hours = report.cp_wasted_core_hours;
    e_backoff_core_hours = report.cp_backoff_core_hours;
  }

(* -- the store ----------------------------------------------------- *)

(* What the catalog keeps per key, decoded or not.  The model text is
   the key's answer text, so it lives and dies with the key: kept across
   LRU evictions, gone when the key is dropped or inserted again. *)
type stored = {
  line : string; (* the raw index line *)
  app : string;
  mutable text : string option; (* Model.Expr.to_string, once answered *)
}

type t = {
  path : string;
  capacity : int;
  evictions : Obs_metrics.counter option;
  events : Obs_events.sink;
  disk : (string, stored) Hashtbl.t; (* key -> what is kept of it *)
  mutable order : string list; (* keys, oldest first; rewrite order *)
  mutable lru : (string * entry) list; (* decoded entries, MRU first *)
  mutable out : out_channel option;
}

let index_path t = t.path
let length t = Hashtbl.length t.disk
let resident t = List.length t.lru

let load_index t =
  if not (Sys.file_exists t.path) then Ok ()
  else
    let* entries, _torn =
      J.decode_lines ~path:t.path
        (fun line -> Result.map (fun e -> (e, line)) (entry_of_line line))
        (J.read_lines t.path)
    in
    List.iter
      (fun (e, line) ->
        if not (Hashtbl.mem t.disk e.e_key) then t.order <- e.e_key :: t.order;
        Hashtbl.replace t.disk e.e_key { line; app = e.e_app; text = None })
      entries;
    t.order <- List.rev t.order;
    Ok ()

let close t =
  match t.out with
  | None -> ()
  | Some oc ->
      t.out <- None;
      close_out_noerr oc

(* Replace the index atomically with one line per key, then append from
   there.  Every open does this too, so a torn tail left by a killed
   writer is cut before the next append, as a campaign journal's is. *)
let rewrite t =
  close t;
  J.write_lines t.path
    (List.filter_map
       (fun k -> Option.map (fun st -> st.line) (Hashtbl.find_opt t.disk k))
       t.order);
  t.out <- Some (J.open_append t.path)

let open_ ?metrics ?(events = Obs_events.disabled)
    ?(capacity = default_capacity) ~dir () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "catalog directory %s does not exist" dir)
  else begin
    let t =
      {
        path = Filename.concat dir "catalog.jsonl";
        capacity = max 1 capacity;
        evictions =
          Option.map (fun m -> Obs_metrics.counter m "serve.evictions") metrics;
        events;
        disk = Hashtbl.create 64;
        order = [];
        lru = [];
        out = None;
      }
    in
    try
      let* () = load_index t in
      rewrite t;
      Ok t
    with Sys_error msg -> Error msg
  end

let promote t e =
  let rest = List.filter (fun (k, _) -> k <> e.e_key) t.lru in
  t.lru <- (e.e_key, e) :: rest;
  if List.length t.lru > t.capacity then begin
    match List.rev t.lru with
    | (victim, _) :: kept_rev ->
        t.lru <- List.rev kept_rev;
        Option.iter Obs_metrics.incr t.evictions;
        Obs_events.emit t.events ~component:"serve"
          ~fields:[ ("key", Obs_events.Str victim) ]
          "serve.evict"
    | [] -> ()
  end

let find t key =
  match List.assoc_opt key t.lru with
  | Some e ->
      promote t e;
      Some e
  | None -> (
      match Hashtbl.find_opt t.disk key with
      | None -> None
      | Some { line; _ } -> (
          match entry_of_line line with
          | Ok e ->
              promote t e;
              Some e
          | Error _ -> None))

let mem t key = List.mem_assoc key t.lru || Hashtbl.mem t.disk key

let model_text t e =
  match Hashtbl.find_opt t.disk e.e_key with
  | Some { text = Some text; _ } -> text
  | Some st ->
      let text = Model.Expr.to_string e.e_model in
      st.text <- Some text;
      text
  | None -> Model.Expr.to_string e.e_model

let insert t e =
  let line = entry_to_line e in
  Option.iter (fun oc -> J.append_line oc line) t.out;
  if not (Hashtbl.mem t.disk e.e_key) then t.order <- t.order @ [ e.e_key ];
  Hashtbl.replace t.disk e.e_key { line; app = e.e_app; text = None };
  promote t e

let drop t key =
  Hashtbl.remove t.disk key;
  t.order <- List.filter (fun k -> k <> key) t.order;
  t.lru <- List.filter (fun (k, _) -> k <> key) t.lru

let invalidate t ~key =
  if Hashtbl.mem t.disk key then begin
    drop t key;
    rewrite t;
    true
  end
  else false

let invalidate_app t ~app =
  let victims =
    List.filter
      (fun k ->
        match Hashtbl.find_opt t.disk k with
        | Some st -> st.app = app
        | None -> false)
      t.order
  in
  List.iter (drop t) victims;
  if victims <> [] then rewrite t;
  List.length victims
