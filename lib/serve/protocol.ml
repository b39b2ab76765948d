module J = Obs_json

type fit_spec = {
  fs_app : string;
  fs_grid : (string * float list) list option;
  fs_reps : int;
  fs_sigma : float;
  fs_seed : int;
  fs_faults : string;
  fs_retries : int;
  fs_backoff : float;
}

type request =
  | Predict of fit_spec * (string * float) list
  | Fit of fit_spec
  | Invalidate_key of string
  | Invalidate_app of string
  | Stats
  | Shutdown

let ops =
  [
    ("predict", "evaluate the app's (possibly cached) model at coordinates");
    ("fit", "run the campaign and fit on a miss; answer from the catalog \
             on a hit");
    ("invalidate", "drop one catalog key or every entry of an app");
    ("stats", "serve.* counters, hit rate, and latency quantiles");
    ("shutdown", "answer, then stop the daemon");
  ]

let ( let* ) = Result.bind

let coord (k, v) =
  Result.map
    (fun f -> (k, f))
    (J.within (Printf.sprintf "coordinate %S" k) J.float v)

let axis (k, v) =
  let* vs = J.within (Printf.sprintf "grid axis %S" k) J.list v in
  let number x =
    Option.to_result (J.to_float x)
      ~none:(Printf.sprintf "grid axis %S: expected numbers" k)
  in
  match J.each number vs with
  | Ok [] -> Error (Printf.sprintf "grid axis %S: empty" k)
  | r -> Result.map (fun fs -> (k, fs)) r

let fit_spec_of j =
  let* fs_app = J.field "app" J.str j in
  let* fs_grid =
    match J.member "grid" j with
    | None -> Ok None
    | Some _ ->
        let* axes = J.field "grid" J.obj j in
        Result.map Option.some (J.each axis axes)
  in
  let* fs_reps = J.field_or "reps" 5 J.int j in
  let* fs_sigma = J.field_or "sigma" 0.02 J.float j in
  let* fs_seed = J.field_or "seed" 42 J.int j in
  let* fs_faults = J.field_or "faults" "" J.str j in
  let* fs_retries = J.field_or "retries" 3 J.int j in
  let* fs_backoff = J.field_or "backoff" 30. J.float j in
  Ok { fs_app; fs_grid; fs_reps; fs_sigma; fs_seed; fs_faults; fs_retries;
       fs_backoff }

let request_of_line line =
  let* j = J.parse line in
  let* op = J.field "op" J.str j in
  match op with
  | "predict" ->
      let* spec = fit_spec_of j in
      let* coords = J.field "coords" J.obj j in
      let* coords = J.each coord coords in
      if coords = [] then Error "field \"coords\": empty"
      else Ok (Predict (spec, coords))
  | "fit" ->
      let* spec = fit_spec_of j in
      Ok (Fit spec)
  | "invalidate" -> (
      match (J.member "key" j, J.member "app" j) with
      | Some _, None ->
          Result.map (fun k -> Invalidate_key k) (J.field "key" J.str j)
      | None, Some _ ->
          Result.map (fun a -> Invalidate_app a) (J.field "app" J.str j)
      | Some _, Some _ -> Error "invalidate: give \"key\" or \"app\", not both"
      | None, None -> Error "invalidate: missing \"key\" or \"app\"")
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | op -> Error (Printf.sprintf "unknown op %S" op)

(* -- responses ----------------------------------------------------- *)

let error_line msg =
  J.to_string (J.Obj [ ("ok", J.Bool false); ("error", J.Str msg) ])

(* Every success answer opens with "ok" and the op it answers. *)
let ok_line op fields =
  J.to_string (J.Obj (("ok", J.Bool true) :: ("op", J.Str op) :: fields))

let predict_line ~key ~cached ~app ~prediction ~model ~smape =
  ok_line "predict"
    [
      ("key", J.Str key);
      ("cached", J.Bool cached);
      ("app", J.Str app);
      ("prediction", J.Float prediction);
      ("model", J.Str model);
      ("smape", J.Float smape);
    ]

let fit_line ~cached (e : Catalog.entry) =
  ok_line "fit"
    [
      ("key", J.Str e.Catalog.e_key);
      ("cached", J.Bool cached);
      ("app", J.Str e.Catalog.e_app);
      ("entry", Catalog.entry_json e);
    ]

let invalidate_line ~removed = ok_line "invalidate" [ ("removed", J.Int removed) ]
let shutdown_line = ok_line "shutdown" []
let stats_line fields = ok_line "stats" fields
