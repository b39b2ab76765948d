(** Tests of the IR layer: builder, CFG analyses (dominators,
    postdominators, back edges), natural-loop detection, validation, and
    the printer/parser round trip — including property tests on randomly
    generated structured programs. *)

open Ir.Types
module B = Ir.Builder
module SSet = Ir.Cfg.SSet

(* -- builders used across tests ------------------------------------------- *)

let diamond =
  B.define "diamond" ~params:[ "x" ] (fun b ->
      let c = B.gt b (Reg "x") (Int 0) in
      B.if_ b c
        ~then_:(fun () -> B.set b "y" (Int 1))
        ~else_:(fun () -> B.set b "y" (Int 2))
        ();
      B.ret b (Reg "y"))

let counted_loop =
  B.define "counted" ~params:[ "n" ] (fun b ->
      B.for_ b "i" ~from:(Int 0) ~below:(Reg "n") (fun _ -> B.work b (Int 1));
      B.ret_unit b)

let nested_loops =
  B.define "nested" ~params:[ "n"; "m" ] (fun b ->
      B.for_ b "i" ~from:(Int 0) ~below:(Reg "n") (fun _ ->
          B.for_ b "j" ~from:(Int 0) ~below:(Reg "m") (fun _ ->
              B.work b (Int 1)));
      B.ret_unit b)

(* -- CFG ----------------------------------------------------------------- *)

let test_successors () =
  let cfg = Ir.Cfg.build diamond in
  let entry = (entry_block diamond).label in
  Alcotest.(check int) "entry has two successors" 2
    (List.length (Ir.Cfg.successors cfg entry));
  let join =
    List.find (fun b -> String.length b.label > 4 && Filename.check_suffix b.label ".join") diamond.blocks
  in
  Alcotest.(check int) "join has two predecessors" 2
    (List.length (Ir.Cfg.predecessors cfg join.label))

let test_dominators_diamond () =
  let cfg = Ir.Cfg.build diamond in
  let entry = (entry_block diamond).label in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "entry dominates %s" b.label)
        true
        (Ir.Cfg.dominates cfg entry b.label))
    diamond.blocks;
  (* Neither arm dominates the join. *)
  let arm suffix =
    (List.find (fun b -> Filename.check_suffix b.label suffix) diamond.blocks).label
  in
  let join = arm ".join" in
  Alcotest.(check bool) "then arm does not dominate join" false
    (Ir.Cfg.dominates cfg (arm ".then") join);
  Alcotest.(check bool) "else arm does not dominate join" false
    (Ir.Cfg.dominates cfg (arm ".else") join)

let test_postdominator_join () =
  let cfg = Ir.Cfg.build diamond in
  let entry = (entry_block diamond).label in
  match Ir.Cfg.ipostdom cfg entry with
  | Some l ->
    Alcotest.(check bool) "branch join is the .join block" true
      (Filename.check_suffix l ".join")
  | None -> Alcotest.fail "entry must have a postdominator"

let test_back_edges () =
  let cfg = Ir.Cfg.build counted_loop in
  match Ir.Cfg.back_edges cfg with
  | [ (src, dst) ] ->
    Alcotest.(check bool) "latch is the body block" true
      (Filename.check_suffix src ".body");
    Alcotest.(check bool) "target is the header" true
      (Filename.check_suffix dst ".header")
  | l -> Alcotest.failf "expected one back edge, got %d" (List.length l)

let test_no_irreducible_from_builder () =
  List.iter
    (fun f ->
      let cfg = Ir.Cfg.build f in
      Alcotest.(check (list (pair string string)))
        (f.fname ^ " has no irreducible edges")
        []
        (Ir.Cfg.irreducible_edges cfg))
    (diamond :: counted_loop :: nested_loops :: Apps.Lulesh.program.funcs)

(* -- loops ----------------------------------------------------------------- *)

let test_loop_detection () =
  let cfg = Ir.Cfg.build nested_loops in
  let forest = Ir.Loops.detect cfg in
  Alcotest.(check int) "two loops" 2 (List.length forest.Ir.Loops.loops);
  Alcotest.(check int) "max depth 2" 2 (Ir.Loops.max_depth forest);
  let inner =
    List.find (fun (l : Ir.Loops.loop) -> l.Ir.Loops.depth = 2) forest.loops
  in
  let outer =
    List.find (fun (l : Ir.Loops.loop) -> l.Ir.Loops.depth = 1) forest.loops
  in
  Alcotest.(check (option string))
    "inner loop's parent is the outer header"
    (Some outer.Ir.Loops.header) inner.Ir.Loops.parent;
  Alcotest.(check bool) "outer body contains inner header" true
    (SSet.mem inner.Ir.Loops.header outer.Ir.Loops.body)

let test_loop_exits () =
  let cfg = Ir.Cfg.build counted_loop in
  let forest = Ir.Loops.detect cfg in
  match forest.Ir.Loops.loops with
  | [ l ] ->
    Alcotest.(check int) "one exit edge" 1 (List.length l.Ir.Loops.exits);
    Alcotest.(check (list string))
      "exiting block is the header"
      [ l.Ir.Loops.header ]
      (Ir.Loops.exiting_blocks l)
  | _ -> Alcotest.fail "expected one loop"

let test_innermost_containing () =
  let cfg = Ir.Cfg.build nested_loops in
  let forest = Ir.Loops.detect cfg in
  let inner =
    List.find (fun (l : Ir.Loops.loop) -> l.Ir.Loops.depth = 2) forest.loops
  in
  let body_block =
    SSet.elements inner.Ir.Loops.body
    |> List.find (fun l -> l <> inner.Ir.Loops.header)
  in
  match Ir.Loops.innermost_containing forest body_block with
  | Some l ->
    Alcotest.(check string) "innermost is the inner loop" inner.Ir.Loops.header
      l.Ir.Loops.header
  | None -> Alcotest.fail "block should be in a loop"

(* -- validation -------------------------------------------------------------- *)

let prog_of funcs entry = { pname = "t"; funcs; entry }

let test_validate_ok () =
  Alcotest.(check int) "no issues on lulesh" 0
    (List.length
       (Ir.Validate.errors (Ir.Validate.check_program Apps.Lulesh.program)))

let test_validate_unknown_callee () =
  let f =
    B.define "f" ~params:[] (fun b ->
        B.call_unit b "nonexistent" [];
        B.ret_unit b)
  in
  let issues = Ir.Validate.check_program (prog_of [ f ] "f") in
  Alcotest.(check bool) "unknown callee is an error" true
    (List.exists
       (fun (i : Ir.Validate.issue) -> i.severity = `Error)
       issues)

let test_validate_undefined_register () =
  let f =
    { fname = "f"; fparams = [];
      blocks = [ { label = "entry"; instrs = []; term = Return (Reg "ghost") } ] }
  in
  let issues = Ir.Validate.check_program (prog_of [ f ] "f") in
  Alcotest.(check bool) "undefined register is an error" true
    (List.exists (fun (i : Ir.Validate.issue) -> i.severity = `Error) issues)

let test_validate_dangling_jump () =
  let f =
    { fname = "f"; fparams = [];
      blocks = [ { label = "entry"; instrs = []; term = Jump "nowhere" } ] }
  in
  let issues = Ir.Validate.check_program (prog_of [ f ] "f") in
  Alcotest.(check bool) "dangling jump is an error" true
    (List.exists (fun (i : Ir.Validate.issue) -> i.severity = `Error) issues)

let test_validate_missing_entry () =
  let issues = Ir.Validate.check_program (prog_of [ diamond ] "main") in
  Alcotest.(check bool) "missing entry is an error" true
    (List.exists (fun (i : Ir.Validate.issue) -> i.severity = `Error) issues)

let test_validate_unreachable_warning () =
  let f =
    { fname = "f"; fparams = [];
      blocks =
        [ { label = "entry"; instrs = []; term = Return Unit };
          { label = "orphan"; instrs = []; term = Return Unit } ] }
  in
  let issues = Ir.Validate.check_program (prog_of [ f ] "f") in
  Alcotest.(check bool) "unreachable block is a warning" true
    (List.exists (fun (i : Ir.Validate.issue) -> i.severity = `Warning) issues)

(* A duplicate formal parameter binds one name twice: the compiled tier
   binds arguments by position, the interpreter by name.  The validator
   refuses it in built programs and the parser in text. *)
let test_validate_duplicate_parameter () =
  let g = B.define "g" ~params:[ "a"; "a" ] (fun b -> B.ret b (Reg "a")) in
  Alcotest.(check (list string)) "validator error"
    [ "error: g: duplicate parameter a" ]
    (List.map
       (Fmt.to_to_string Ir.Validate.pp_issue)
       (Ir.Validate.errors (Ir.Validate.check_program (prog_of [ g ] "g"))));
  match Ir.Parser.parse "func @g(a, b, a) {\nentry:\n  ret %a\n}\n" with
  | _ -> Alcotest.fail "the parser accepted a duplicate parameter"
  | exception Ir.Parser.Parse_error { line; message } ->
    Alcotest.(check int) "line" 1 line;
    Alcotest.(check string) "message" "duplicate parameter a of @g" message

(* -- builder ------------------------------------------------------------------ *)

let test_builder_for_shape () =
  (* for_ emits header/body/exit with the canonical compare in the header. *)
  let header =
    List.find
      (fun b -> Filename.check_suffix b.label ".header")
      counted_loop.blocks
  in
  (match header.term with
  | Branch (Reg _, t, e) ->
    Alcotest.(check bool) "then goes to body" true (Filename.check_suffix t ".body");
    Alcotest.(check bool) "else goes to exit" true (Filename.check_suffix e ".exit")
  | _ -> Alcotest.fail "header must end in a conditional branch");
  match header.instrs with
  | [ Binop (_, Lt, Reg _, Reg "n") ] -> ()
  | _ -> Alcotest.fail "header must contain exactly the bound comparison"

let test_builder_double_terminator_rejected () =
  let b = B.create "f" ~params:[] in
  B.ret_unit b;
  Alcotest.check_raises "second terminator raises"
    (Ir_error "double terminator in f") (fun () -> B.ret_unit b)

let test_builder_repeat () =
  let f =
    B.define "f" ~params:[] (fun b ->
        B.repeat b (Int 3) (fun () -> B.work b (Int 1));
        B.ret_unit b)
  in
  let m = Interp.Machine.create (prog_of [ f ] "f") in
  let _ = Interp.Machine.run m [] in
  let fo = Interp.Observations.func_obs (Interp.Machine.observations m) "f" in
  Alcotest.(check int) "3 work units" 3 fo.Interp.Observations.fo_work

(* -- printer / parser ----------------------------------------------------------- *)

let test_roundtrip_fixed () =
  List.iter
    (fun p ->
      let s1 = Ir.Pp.program_to_string p in
      let s2 = Ir.Pp.program_to_string (Ir.Parser.parse s1) in
      Alcotest.(check string) ("round trip " ^ p.pname) s1 s2)
    [ Apps.Didactic.iterate_example; Apps.Didactic.foo_example;
      Apps.Didactic.matrix_init; Apps.Didactic.algorithm_selection;
      Apps.Didactic.control_dependence; Apps.Lulesh.program;
      Apps.Milc.program ]

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_parse_error_reported () =
  (try
     ignore (Ir.Parser.parse "func @f( {\n");
     Alcotest.fail "expected parse error"
   with Ir.Parser.Parse_error _ -> ());
  try
    ignore (Ir.Parser.parse "func @f() {\nentry:\n  %x = frobnicate %y\n  ret ()\n}");
    Alcotest.fail "expected parse error for unknown opcode"
  with Ir.Parser.Parse_error { message; _ } ->
    Alcotest.(check bool) "mentions opcode" true
      (string_contains message "frobnicate")

let test_parse_literals () =
  let p =
    Ir.Parser.parse
      "func @f(a) {\nentry:\n  %x = -5\n  %y = 2.5\n  %z = true\n  %w = ()\n  %s = fadd %y, 1.5e-3\n  ret %x\n}"
  in
  let f = find_func p "f" in
  let instrs = (entry_block f).instrs in
  Alcotest.(check int) "five instructions" 5 (List.length instrs);
  (match List.nth instrs 0 with
  | Assign ("x", Int (-5)) -> ()
  | i -> Alcotest.failf "bad negative int: %s" (Fmt.str "%a" Ir.Pp.pp_instr i));
  (match List.nth instrs 1 with
  | Assign ("y", Float 2.5) -> ()
  | i -> Alcotest.failf "bad float: %s" (Fmt.str "%a" Ir.Pp.pp_instr i));
  (match List.nth instrs 2 with
  | Assign ("z", Bool true) -> ()
  | i -> Alcotest.failf "bad bool: %s" (Fmt.str "%a" Ir.Pp.pp_instr i));
  (match List.nth instrs 3 with
  | Assign ("w", Unit) -> ()
  | i -> Alcotest.failf "bad unit: %s" (Fmt.str "%a" Ir.Pp.pp_instr i));
  match List.nth instrs 4 with
  | Binop ("s", FAdd, Reg "y", Float 1.5e-3) -> ()
  | i -> Alcotest.failf "bad scientific float: %s" (Fmt.str "%a" Ir.Pp.pp_instr i)

let test_parse_comments_and_blanks () =
  let p =
    Ir.Parser.parse
      "; a comment\n\nfunc @f() { ; trailing comment\nentry:\n  ; inner\n  ret ()\n}\n"
  in
  Alcotest.(check int) "one function" 1 (List.length p.funcs)

let test_parse_call_no_args () =
  let p =
    Ir.Parser.parse
      "func @g() {\nentry:\n  ret ()\n}\nfunc @f() {\nentry:\n  call @g()\n  %r = call @g()\n  ret %r\n}"
  in
  let f = find_func p "f" in
  Alcotest.(check int) "two calls" 2 (List.length (entry_block f).instrs)

let test_parse_header () =
  let p = Ir.Parser.parse "; program myapp (entry @start)\nfunc @start() {\nentry:\n  ret ()\n}" in
  Alcotest.(check string) "program name" "myapp" p.pname;
  Alcotest.(check string) "entry" "start" p.entry

(* -- printer/parser edge cases --------------------------------------------- *)

let roundtrip_operand op =
  (* One-instruction program carrying the operand; parse back the printed
     form and extract the operand again. *)
  let p =
    { pname = "t"; entry = "f";
      funcs =
        [ { fname = "f"; fparams = [];
            blocks =
              [ { label = "entry"; instrs = [ Assign ("x", op) ];
                  term = Return Unit } ] } ] }
  in
  let p' = Ir.Parser.parse (Ir.Pp.program_to_string p) in
  match (entry_block (find_func p' "f")).instrs with
  | [ Assign ("x", op') ] -> op'
  | _ -> Alcotest.fail "round trip lost the instruction"

let test_float_literals_roundtrip () =
  (* %g alone would print 1.0 as "1", which reparses as the *integer* 1 —
     the literal printer must keep the kind. *)
  List.iter
    (fun f ->
      match roundtrip_operand (Float f) with
      | Float f' ->
        Alcotest.(check bool)
          (Printf.sprintf "float %h survives" f)
          true
          (Int64.bits_of_float f = Int64.bits_of_float f')
      | op ->
        Alcotest.failf "float %h reparsed as %s" f
          (Fmt.str "%a" Ir.Pp.pp_operand op))
    [ 1.0; -0.0; 0.0; 2.5; 1e300; 1e-300; -17.; 0.1; 3.14159265358979312;
      1.5e-3; 1e22 ]

let test_special_float_literals () =
  (match roundtrip_operand (Float Float.nan) with
  | Float f -> Alcotest.(check bool) "nan survives" true (Float.is_nan f)
  | _ -> Alcotest.fail "nan lost its kind");
  (match roundtrip_operand (Float Float.infinity) with
  | Float f -> Alcotest.(check bool) "inf survives" true (f = Float.infinity)
  | _ -> Alcotest.fail "inf lost its kind");
  (match roundtrip_operand (Float Float.neg_infinity) with
  | Float f -> Alcotest.(check bool) "-inf survives" true (f = Float.neg_infinity)
  | _ -> Alcotest.fail "-inf lost its kind");
  Alcotest.(check string) "nan literal" "nan" (Ir.Pp.float_literal Float.nan);
  Alcotest.(check string) "1.0 keeps a float marker" "1."
    (Ir.Pp.float_literal 1.0)

let prop_float_literal_roundtrip =
  QCheck.Test.make ~count:500 ~name:"float literals round trip bit-exactly"
    QCheck.float (fun f ->
      match roundtrip_operand (Float f) with
      | Float f' ->
        Float.is_nan f' && Float.is_nan f
        || Int64.bits_of_float f = Int64.bits_of_float f'
      | _ -> false)

let test_long_identifiers () =
  (* Maximal-length names: registers, functions, labels survive printing
     and reparsing unchanged. *)
  let long = String.make 200 'x' in
  let f =
    B.define long ~params:[ long ^ "p" ] (fun b ->
        B.set b long (Reg (long ^ "p"));
        B.ret b (Reg long))
  in
  let p = prog_of [ f ] long in
  let p' = Ir.Parser.parse (Ir.Pp.program_to_string p) in
  Alcotest.(check string) "entry name" long p'.entry;
  Alcotest.(check bool) "program round trips" true (compare p p' = 0)

let test_parse_error_line_numbers () =
  let expect_line n src =
    try
      ignore (Ir.Parser.parse src);
      Alcotest.fail "expected a parse error"
    with Ir.Parser.Parse_error { line; _ } ->
      Alcotest.(check int) "error line" n line
  in
  expect_line 3 "func @f() {\nentry:\n  %x = frobnicate %y\n  ret ()\n}";
  expect_line 4 "func @f() {\nentry:\n  %x = 1\n  %y = add %x\n  ret ()\n}";
  expect_line 1 "garbage"

(* -- random structured programs (properties) ----------------------------------- *)

(* Random programs come from the shared lib/fuzz grammar (calls, memory
   aliasing, floats, irregular nests, tainted branches), so these
   properties cover far more CFG shapes than the old local work/if/for
   tree — and failures shrink structurally. *)
let prop_random_programs_valid =
  QCheck.Test.make ~count:200 ~name:"builder output always validates"
    Fuzz.Shrink.arbitrary (fun prog ->
      let p = Fuzz.Gen.to_program prog in
      Ir.Validate.errors (Ir.Validate.check_program p) = [])

let prop_random_programs_roundtrip =
  QCheck.Test.make ~count:200 ~name:"pp/parse round trip on random programs"
    Fuzz.Shrink.arbitrary (fun prog ->
      let p = Fuzz.Gen.to_program prog in
      let s1 = Ir.Pp.program_to_string p in
      Ir.Pp.program_to_string (Ir.Parser.parse s1) = s1)

let prop_dominators_reflexive_entry =
  QCheck.Test.make ~count:100 ~name:"entry dominates every reachable block"
    Fuzz.Shrink.arbitrary (fun prog ->
      let p = Fuzz.Gen.to_program prog in
      List.for_all
        (fun f ->
          let cfg = Ir.Cfg.build f in
          List.for_all
            (fun l -> Ir.Cfg.dominates cfg (entry_block f).label l)
            (Ir.Cfg.reachable_labels cfg))
        p.funcs)

(* Brute-force dominance: a dominates b iff b is unreachable from the
   entry once a is removed from the graph. *)
let brute_dominates f a b =
  if a = b then true
  else begin
    let cfg = Ir.Cfg.build f in
    let entry = (entry_block f).label in
    if a = entry then true
    else begin
      let seen = Hashtbl.create 16 in
      let rec go l =
        if l <> a && not (Hashtbl.mem seen l) then begin
          Hashtbl.add seen l ();
          List.iter go (Ir.Cfg.successors cfg l)
        end
      in
      go entry;
      not (Hashtbl.mem seen b)
    end
  end

let prop_dominators_match_brute_force =
  QCheck.Test.make ~count:60 ~name:"CHK dominators match brute force"
    Fuzz.Shrink.arbitrary (fun prog ->
      let p = Fuzz.Gen.to_program prog in
      List.for_all
        (fun f ->
          let cfg = Ir.Cfg.build f in
          let labels = Ir.Cfg.reachable_labels cfg in
          List.for_all
            (fun a ->
              List.for_all
                (fun b -> Ir.Cfg.dominates cfg a b = brute_dominates f a b)
                labels)
            labels)
        p.funcs)

(* The parser must never raise anything except Parse_error, even on
   garbage or mutated programs. *)
let prop_parser_total_on_garbage =
  QCheck.Test.make ~count:300 ~name:"parser is total on garbage input"
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 80) QCheck.Gen.printable)
    (fun s ->
      match Ir.Parser.parse s with
      | _ -> true
      | exception Ir.Parser.Parse_error _ -> true)

let prop_parser_total_on_mutations =
  QCheck.Test.make ~count:200 ~name:"parser is total on mutated programs"
    QCheck.(pair Fuzz.Shrink.arbitrary (pair small_nat printable_char))
    (fun (prog, (pos, c)) ->
      let s = Ir.Pp.program_to_string (Fuzz.Gen.to_program prog) in
      let s =
        if String.length s = 0 then s
        else begin
          let b = Bytes.of_string s in
          Bytes.set b (pos mod String.length s) c;
          Bytes.to_string b
        end
      in
      match Ir.Parser.parse s with
      | _ -> true
      | exception Ir.Parser.Parse_error _ -> true
      | exception Ir.Types.Ir_error _ -> true)

let prop_loop_bodies_nest =
  QCheck.Test.make ~count:100
    ~name:"loop forest: child bodies are subsets of parent bodies"
    Fuzz.Shrink.arbitrary (fun prog ->
      let p = Fuzz.Gen.to_program prog in
      List.for_all
        (fun f ->
          let forest = Ir.Loops.detect (Ir.Cfg.build f) in
          List.for_all
            (fun (l : Ir.Loops.loop) ->
              match l.Ir.Loops.parent with
              | None -> true
              | Some parent -> (
                match Ir.Loops.find forest parent with
                | Some pl -> SSet.subset l.Ir.Loops.body pl.Ir.Loops.body
                | None -> false))
            forest.Ir.Loops.loops)
        p.funcs)

(* A literal of digits with an optional sign that does not fit an [int]
   is a parse error naming it, not a float.  The extreme ints still
   parse as ints, and a float of the same magnitude keeps its kind. *)
let test_out_of_range_int_literal () =
  let program lit =
    Printf.sprintf "func @f() {\nentry:\n  %%x = %s\n  ret %%x\n}" lit
  in
  List.iter
    (fun lit ->
      match Ir.Parser.parse (program lit) with
      | _ -> Alcotest.failf "%s parsed" lit
      | exception Ir.Parser.Parse_error { line; message } ->
        Alcotest.(check int) (lit ^ ": error line") 3 line;
        let n = String.length lit and m = String.length message in
        let rec names i =
          i + n <= m && (String.sub message i n = lit || names (i + 1))
        in
        Alcotest.(check bool)
          (Printf.sprintf "%S names %s" message lit)
          true (names 0))
    [ "9223372036854775807"; "-9223372036854775808";
      Printf.sprintf "%d0" max_int; "+4611686018427387904" ];
  List.iter
    (fun i ->
      match roundtrip_operand (Int i) with
      | Int i' -> Alcotest.(check int) "extreme int survives" i i'
      | op ->
        Alcotest.failf "int %d reparsed as %s" i
          (Fmt.str "%a" Ir.Pp.pp_operand op))
    [ max_int; min_int ];
  let p = Ir.Parser.parse (program "9223372036854775807.") in
  match (entry_block (find_func p "f")).instrs with
  | [ Assign ("x", Float f) ] ->
    Alcotest.(check (float 0.)) "a float literal keeps its kind"
      9.223372036854775807e18 f
  | _ -> Alcotest.fail "float literal lost its kind"

let tests =
  [
    Alcotest.test_case "cfg successors/predecessors" `Quick test_successors;
    Alcotest.test_case "dominators on a diamond" `Quick test_dominators_diamond;
    Alcotest.test_case "postdominator is the join" `Quick test_postdominator_join;
    Alcotest.test_case "back edge of a counted loop" `Quick test_back_edges;
    Alcotest.test_case "builder CFGs are reducible" `Quick
      test_no_irreducible_from_builder;
    Alcotest.test_case "nested loop forest" `Quick test_loop_detection;
    Alcotest.test_case "loop exits" `Quick test_loop_exits;
    Alcotest.test_case "innermost containing loop" `Quick
      test_innermost_containing;
    Alcotest.test_case "validate: lulesh is clean" `Quick test_validate_ok;
    Alcotest.test_case "validate: unknown callee" `Quick
      test_validate_unknown_callee;
    Alcotest.test_case "validate: undefined register" `Quick
      test_validate_undefined_register;
    Alcotest.test_case "validate: dangling jump" `Quick
      test_validate_dangling_jump;
    Alcotest.test_case "validate: missing entry" `Quick
      test_validate_missing_entry;
    Alcotest.test_case "validate: unreachable warning" `Quick
      test_validate_unreachable_warning;
    Alcotest.test_case "builder emits canonical for_ shape" `Quick
      test_builder_for_shape;
    Alcotest.test_case "builder rejects double terminator" `Quick
      test_builder_double_terminator_rejected;
    Alcotest.test_case "builder repeat" `Quick test_builder_repeat;
    Alcotest.test_case "pp/parse round trip (apps)" `Quick test_roundtrip_fixed;
    Alcotest.test_case "parse errors are reported" `Quick
      test_parse_error_reported;
    Alcotest.test_case "parse header comment" `Quick test_parse_header;
    Alcotest.test_case "parse literal forms" `Quick test_parse_literals;
    Alcotest.test_case "parse comments and blank lines" `Quick
      test_parse_comments_and_blanks;
    Alcotest.test_case "parse zero-argument calls" `Quick
      test_parse_call_no_args;
    Alcotest.test_case "float literals keep their kind" `Quick
      test_float_literals_roundtrip;
    Alcotest.test_case "nan/inf/-inf literals" `Quick
      test_special_float_literals;
    Alcotest.test_case "maximal-length identifiers" `Quick
      test_long_identifiers;
    Alcotest.test_case "parse errors carry line numbers" `Quick
      test_parse_error_line_numbers;
    Seeded.to_alcotest prop_float_literal_roundtrip;
    Seeded.to_alcotest prop_random_programs_valid;
    Seeded.to_alcotest prop_random_programs_roundtrip;
    Seeded.to_alcotest prop_dominators_reflexive_entry;
    Seeded.to_alcotest prop_dominators_match_brute_force;
    Seeded.to_alcotest prop_parser_total_on_garbage;
    Seeded.to_alcotest prop_parser_total_on_mutations;
    Seeded.to_alcotest prop_loop_bodies_nest;
    Alcotest.test_case "validate: duplicate parameter" `Quick
      test_validate_duplicate_parameter;
    Alcotest.test_case "out-of-range integer literals refused" `Quick
      test_out_of_range_int_literal;
  ]
