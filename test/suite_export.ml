(** Tests of the JSON export: escaping, structure, and a validity check
    of the full analysis report (parsable by {!Obs_json.parse}). *)

module J = Obs_json
module E = Perf_taint.Export

let str j = J.to_string j

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_scalars () =
  Alcotest.(check string) "null" "null" (str J.Null);
  Alcotest.(check string) "true" "true" (str (J.Bool true));
  Alcotest.(check string) "int" "42" (str (J.Int 42));
  Alcotest.(check string) "float" "1.5" (str (J.Float 1.5));
  Alcotest.(check string) "integral float" "3.0" (str (J.Float 3.));
  Alcotest.(check string) "nan becomes null" "null" (str (J.Float Float.nan))

let test_non_finite_floats () =
  (* "inf"/"nan" are not JSON tokens: every non-finite float must emit
     null, also nested inside structures. *)
  Alcotest.(check string) "+inf becomes null" "null" (str (J.Float Float.infinity));
  Alcotest.(check string) "-inf becomes null" "null"
    (str (J.Float Float.neg_infinity));
  Alcotest.(check string) "huge finite survives" "1.0000000000000001e+300"
    (str (J.Float 1e300));
  let s =
    str
      (J.Obj
         [ ("a", J.Float Float.nan);
           ("b", J.List [ J.Float Float.infinity; J.Float 2. ]) ])
  in
  Alcotest.(check bool) "no inf token" false (contains s "inf");
  Alcotest.(check bool) "no nan token" false (contains s "nan")

let test_escaping () =
  Alcotest.(check string) "quotes" "\"a\\\"b\"" (str (J.Str "a\"b"));
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (str (J.Str "a\\b"));
  Alcotest.(check string) "newline" "\"a\\nb\"" (str (J.Str "a\nb"));
  Alcotest.(check string) "carriage return" "\"a\\rb\"" (str (J.Str "a\rb"));
  Alcotest.(check string) "tab" "\"a\\tb\"" (str (J.Str "a\tb"));
  Alcotest.(check string) "control chars take the \\u path" "\"a\\u0001\\u001fb\""
    (str (J.Str "a\x01\x1fb"));
  (* Non-ASCII bytes pass through untouched: the emitter writes UTF-8
     strings byte for byte. *)
  Alcotest.(check string) "utf-8 passthrough" "\"\xc3\xa9\""
    (str (J.Str "\xc3\xa9"));
  (* Keys are escaped with the same machinery as values. *)
  Alcotest.(check string) "escaped key" "{\"a\\nb\":1}"
    (str (J.Obj [ ("a\nb", J.Int 1) ]))

let test_structure () =
  let j = J.Obj [ ("xs", J.List [ J.Int 1; J.Int 2 ]); ("k", J.Str "v") ] in
  let s = str j in
  Alcotest.(check bool) "contains key" true (contains s "\"xs\":")

let json_well_formed s = Result.is_ok (J.parse s)

let test_model_json () =
  let m =
    { Model.Expr.const = 1.5;
      terms =
        [ { Model.Expr.coeff = 2.;
            factors = [ ("p", { Model.Expr.expo = 0.5; logexp = 1 }) ] } ] }
  in
  let s = str (E.model_json m) in
  Alcotest.(check bool) "well formed" true (json_well_formed s);
  Alcotest.(check bool) "has coefficient" true
    (contains s "\"coefficient\":2.0")

let test_analysis_json_well_formed () =
  let t =
    Perf_taint.Pipeline.analyze ~world:Apps.Lulesh.taint_world
      Apps.Lulesh.program ~args:Apps.Lulesh.taint_args
  in
  let s = str (E.analysis_json t ~model_params:[ "p"; "size" ]) in
  Alcotest.(check bool) "lulesh report well formed" true (json_well_formed s);
  Alcotest.(check bool) "mentions CalcQ" true
    (contains s "calc_q_for_elems")

let test_dataset_json () =
  let data =
    Model.Dataset.of_rows [ "p" ]
      [ ([ ("p", 2.) ], [ 1.; 1.1 ]); ([ ("p", 4.) ], [ 2. ]) ]
  in
  let s = str (E.dataset_json data) in
  Alcotest.(check bool) "well formed" true (json_well_formed s);
  Alcotest.(check bool) "has measurements" true
    (contains s "\"measurements\"")

let tests =
  [
    Alcotest.test_case "scalar emission" `Quick test_scalars;
    Alcotest.test_case "non-finite floats" `Quick test_non_finite_floats;
    Alcotest.test_case "string escaping" `Quick test_escaping;
    Alcotest.test_case "object structure" `Quick test_structure;
    Alcotest.test_case "model json" `Quick test_model_json;
    Alcotest.test_case "full analysis report" `Quick
      test_analysis_json_well_formed;
    Alcotest.test_case "dataset json" `Quick test_dataset_json;
  ]
