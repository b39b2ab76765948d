(** Tests of the taint runtime: the label algebra over registered
    sources, the source limit, shadow memory. *)

module L = Taint.Label
module S = Taint.Shadow

let names tbl l = L.names tbl l

let test_empty_label () =
  let tbl = L.create () in
  Alcotest.(check bool) "empty is empty" true (L.is_empty L.empty);
  Alcotest.(check (list string)) "no names" [] (names tbl L.empty)

let test_base_interning () =
  let tbl = L.create () in
  let a1 = L.base tbl "a" in
  let a2 = L.base tbl "a" in
  Alcotest.(check bool) "same base interned" true (a1 = a2);
  Alcotest.(check (list string)) "name" [ "a" ] (names tbl a1)

let test_union_basics () =
  let tbl = L.create () in
  let a = L.base tbl "a" and b = L.base tbl "b" in
  let ab = L.union a b in
  Alcotest.(check (list string)) "union names" [ "a"; "b" ] (names tbl ab);
  Alcotest.(check bool) "union with empty is identity" true
    (L.union a L.empty = a);
  Alcotest.(check bool) "union with self is identity" true (L.union a a = a)

let test_union_dedup () =
  let tbl = L.create () in
  let a = L.base tbl "a" and b = L.base tbl "b" in
  let ab1 = L.union a b in
  let ab2 = L.union b a in
  Alcotest.(check bool) "a|b and b|a are one label" true (ab1 = ab2);
  Alcotest.(check (list string)) "unions register no sources" [ "a"; "b" ]
    (L.sources tbl)

let test_union_subsumption () =
  let tbl = L.create () in
  let a = L.base tbl "a" and b = L.base tbl "b" in
  let ab = L.union a b in
  Alcotest.(check bool) "ab | a = ab" true (L.union ab a = ab);
  Alcotest.(check bool) "a | ab = ab" true (L.union a ab = ab)

let test_has () =
  let tbl = L.create () in
  let a = L.base tbl "a" and b = L.base tbl "b" in
  let ab = L.union a b in
  Alcotest.(check bool) "has a" true (L.has tbl ab "a");
  Alcotest.(check bool) "has b" true (L.has tbl ab "b");
  Alcotest.(check bool) "not has c" false (L.has tbl ab "c")

let test_union_all () =
  let tbl = L.create () in
  let ls = List.map (L.base tbl) [ "x"; "y"; "z" ] in
  let u = L.union_all ls in
  Alcotest.(check (list string)) "all three" [ "x"; "y"; "z" ] (names tbl u)

let test_source_limit () =
  let tbl = L.create () in
  let srcs = List.init 62 (Printf.sprintf "p%02d") in
  let u = L.union_all (List.map (L.base tbl) srcs) in
  Alcotest.(check int) "62 sources" 62 L.max_sources;
  Alcotest.(check (list string)) "all 62 covered" srcs (names tbl u);
  Alcotest.(check bool) "labels stay non-negative" true ((u :> int) >= 0);
  (match L.base tbl "q" with
  | _ -> Alcotest.fail "a 63rd source was accepted"
  | exception L.Too_many_sources n ->
    Alcotest.(check string) "refused by name" "q" n);
  Alcotest.(check (list string)) "registry unchanged" srcs (L.sources tbl);
  Alcotest.(check (list string)) "a full table still resolves its sources"
    [ "p61" ] (names tbl (L.base tbl "p61"))

(* -- shadow memory ------------------------------------------------------------ *)

let test_shadow_roundtrip () =
  let tbl = L.create () in
  let s = S.create () in
  S.on_alloc s ~alloc:0 ~size:8;
  let a = L.base tbl "a" in
  S.set s ~alloc:0 ~offset:3 a;
  Alcotest.(check bool) "read back" true (S.get s ~alloc:0 ~offset:3 = a);
  Alcotest.(check bool) "other cell clean" true
    (L.is_empty (S.get s ~alloc:0 ~offset:4))

let test_shadow_out_of_bounds () =
  let s = S.create () in
  S.on_alloc s ~alloc:0 ~size:4;
  Alcotest.(check bool) "oob get is empty" true
    (L.is_empty (S.get s ~alloc:0 ~offset:99));
  (* oob set is a no-op, not a crash *)
  let tbl = L.create () in
  S.set s ~alloc:0 ~offset:99 (L.base tbl "x");
  Alcotest.(check bool) "unknown alloc get is empty" true
    (L.is_empty (S.get s ~alloc:42 ~offset:0))

let test_shadow_taint_all () =
  let tbl = L.create () in
  let s = S.create () in
  S.on_alloc s ~alloc:1 ~size:4;
  let a = L.base tbl "a" in
  S.taint_all s ~alloc:1 a;
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "cell %d tainted" i)
      true
      (S.get s ~alloc:1 ~offset:i = a)
  done

(* -- properties ------------------------------------------------------------------ *)

let gen_param_names = QCheck.Gen.(list_size (int_range 1 6) (string_size ~gen:(char_range 'a' 'f') (return 1)))

let prop_union_commutative =
  QCheck.Test.make ~count:200 ~name:"union is commutative (as a name set)"
    (QCheck.make QCheck.Gen.(pair gen_param_names gen_param_names))
    (fun (xs, ys) ->
      let tbl = L.create () in
      let mk ns = L.union_all (List.map (L.base tbl) ns) in
      let a = mk xs and b = mk ys in
      names tbl (L.union a b) = names tbl (L.union b a))

let prop_union_associative =
  QCheck.Test.make ~count:200 ~name:"union is associative (as a name set)"
    (QCheck.make QCheck.Gen.(triple gen_param_names gen_param_names gen_param_names))
    (fun (xs, ys, zs) ->
      let tbl = L.create () in
      let mk ns = L.union_all (List.map (L.base tbl) ns) in
      let a = mk xs and b = mk ys and c = mk zs in
      names tbl (L.union (L.union a b) c)
      = names tbl (L.union a (L.union b c)))

let prop_union_idempotent =
  QCheck.Test.make ~count:200 ~name:"union is idempotent"
    (QCheck.make gen_param_names)
    (fun xs ->
      let tbl = L.create () in
      let a = L.union_all (List.map (L.base tbl) xs) in
      L.union a a = a)

let prop_names_sorted_unique =
  QCheck.Test.make ~count:200 ~name:"names are sorted and duplicate-free"
    (QCheck.make gen_param_names)
    (fun xs ->
      let tbl = L.create () in
      let a = L.union_all (List.map (L.base tbl) xs) in
      let ns = names tbl a in
      ns = List.sort_uniq compare ns)

(* Commutativity holds on the labels themselves, not just on the
   expanded name sets. *)
let prop_union_commutative_handles =
  QCheck.Test.make ~count:200 ~name:"union is commutative on handles"
    (QCheck.make QCheck.Gen.(pair gen_param_names gen_param_names))
    (fun (xs, ys) ->
      let tbl = L.create () in
      let mk ns = L.union_all (List.map (L.base tbl) ns) in
      let a = mk xs and b = mk ys in
      L.union a b = L.union b a)

let prop_union_matches_set_union =
  QCheck.Test.make ~count:200 ~name:"label union = set union of names"
    (QCheck.make QCheck.Gen.(pair gen_param_names gen_param_names))
    (fun (xs, ys) ->
      let tbl = L.create () in
      let mk ns = L.union_all (List.map (L.base tbl) ns) in
      names tbl (L.union (mk xs) (mk ys))
      = List.sort_uniq compare (xs @ ys))

let tests =
  [
    Alcotest.test_case "empty label" `Quick test_empty_label;
    Alcotest.test_case "base interning" `Quick test_base_interning;
    Alcotest.test_case "union basics" `Quick test_union_basics;
    Alcotest.test_case "union dedup (DFSan)" `Quick test_union_dedup;
    Alcotest.test_case "union subsumption fast path" `Quick
      test_union_subsumption;
    Alcotest.test_case "has" `Quick test_has;
    Alcotest.test_case "union_all" `Quick test_union_all;
    Alcotest.test_case "the 63rd distinct source is refused" `Quick
      test_source_limit;
    Alcotest.test_case "shadow round trip" `Quick test_shadow_roundtrip;
    Alcotest.test_case "shadow out of bounds" `Quick test_shadow_out_of_bounds;
    Alcotest.test_case "shadow taint_all" `Quick test_shadow_taint_all;
    Seeded.to_alcotest prop_union_commutative;
    Seeded.to_alcotest prop_union_commutative_handles;
    Seeded.to_alcotest prop_union_associative;
    Seeded.to_alcotest prop_union_idempotent;
    Seeded.to_alcotest prop_names_sorted_unique;
    Seeded.to_alcotest prop_union_matches_set_union;
  ]
