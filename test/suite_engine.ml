(** Tests of the policy-parameterized execution engine: control-taint
    corner cases through the Taint policy ("$never" joins, nested
    branches sharing an immediate postdominator), Taint/Plain agreement
    with control-flow taint disabled, Coverage hit counts, the step
    budget under Plain, the compiled tier's per-callpath state against
    the interpreter, and the counter-name table in
    [doc/OBSERVABILITY.md] staying in sync with
    {!Interp.Engine.instr_counters}. *)

open Ir.Types
module B = Ir.Builder
module M = Interp.Machine
module P = Interp.Plain
module C = Interp.Coverage
module CP = Interp.Coverage_policy
module Obs = Interp.Observations
module O = Fuzz.Oracle

let prog funcs entry = { pname = "t"; funcs; entry }
let names m l = Taint.Label.names (M.label_table m) l

(* A branch whose arms both return: no block postdominates it, so the
   control scope is the function-scoped "$never" join and every return
   under it carries the condition's taint. *)
let never_fn =
  B.define "f" ~params:[ "c" ] (fun b ->
      let c = B.prim b "taint:c" [ Reg "c" ] in
      let cond = B.gt b c (Int 0) in
      B.terminate b (Branch (cond, "yes", "no"));
      B.start_block b "yes";
      B.ret b (Int 1);
      B.start_block b "no";
      B.ret b (Int 2))

let test_never_join () =
  let m = M.create (prog [ never_fn ] "f") in
  let _, l = M.run m [ VInt 5 ] in
  Alcotest.(check (list string))
    "constant return under a $never scope carries the condition taint"
    [ "c" ] (names m l)

(* Control taint is function-scoped: a caller that invokes [f] above and
   then writes a constant must produce a clean value — the callee's
   never-popped scope dies with its frame. *)
let test_never_join_is_function_scoped () =
  let main =
    B.define "main" ~params:[ "c" ] (fun b ->
        B.call_unit b "f" [ Reg "c" ];
        B.set b "after" (Int 7);
        B.ret b (Reg "after"))
  in
  let m = M.create (prog [ main; never_fn ] "main") in
  let v, l = M.run m [ VInt 5 ] in
  Alcotest.(check bool) "caller result value" true (v = VInt 7);
  Alcotest.(check (list string))
    "callee's $never scope does not leak into the caller" [] (names m l)

(* Two nested tainted branches whose arms meet at the same block:
   entry -(a>0)-> {mid, join}, mid -(b>0)-> {left, join}, left -> join.
   "join" is the immediate postdominator of both branch blocks, so a
   store inside [left] runs under both scopes and a write after [join]
   is clean again. *)
let shared_join ~store =
  B.define "f" ~params:[ "a"; "b" ] (fun b ->
      let a = B.prim b "taint:a" [ Reg "a" ] in
      let bb = B.prim b "taint:b" [ Reg "b" ] in
      let arr = B.alloc b (Int 1) in
      let ca = B.gt b a (Int 0) in
      B.terminate b (Branch (ca, "mid", "join"));
      B.start_block b "mid";
      let cb = B.gt b bb (Int 0) in
      B.terminate b (Branch (cb, "left", "join"));
      B.start_block b "left";
      if store then B.store b arr (Int 0) (Int 1);
      B.terminate b (Jump "join");
      B.start_block b "join";
      B.set b "after" (Int 3);
      if store then B.ret b (B.load b arr (Int 0)) else B.ret b (Reg "after"))

let test_nested_shared_ipostdom_union () =
  let m = M.create (prog [ shared_join ~store:true ] "f") in
  let v, l = M.run m [ VInt 1; VInt 1 ] in
  Alcotest.(check bool) "stored value read back" true (v = VInt 1);
  Alcotest.(check (list string))
    "store under both nested scopes carries both labels" [ "a"; "b" ]
    (List.sort compare (names m l))

let test_nested_shared_ipostdom_pops_both () =
  let m = M.create (prog [ shared_join ~store:false ] "f") in
  let v, l = M.run m [ VInt 1; VInt 1 ] in
  Alcotest.(check bool) "post-join value" true (v = VInt 3);
  Alcotest.(check (list string))
    "both scopes popped at the shared join; post-join write is clean" []
    (names m l)

(* -- one control scope per join ------------------------------------------ *)

(* The Taint policy driven directly, block by block, as the engine drives
   it.  Every iteration of a loop whose exit test is tainted pushes a
   scope joining at the loop exit; those scopes end together, so the
   frame holds one of them however many iterations ran. *)

module TP = Interp.Taint_policy
module L = Taint.Label

let tp_state () = TP.create ~control_flow_taint:true ~hint:0

let enter s f block = TP.block_enter s f ~func:"f" ~block ~prev:None

let iterate s f ~join l n =
  for _ = 1 to n do
    enter s f "header";
    enter s f "body";
    TP.scope_push s f ~join l
  done

let test_one_scope_per_join () =
  let s = tp_state () in
  let n = L.base (TP.table s) "n" in
  List.iter
    (fun iters ->
      let f = TP.frame_slots s 1 in
      iterate s f ~join:"exit" n iters;
      Alcotest.(check int)
        (Printf.sprintf "%d iterations leave one live scope" iters)
        1 (TP.live_scopes f);
      Alcotest.(check int) "the scope carries the exit test's taint"
        (n :> int)
        (TP.return_label s f L.empty :> int);
      enter s f "exit";
      Alcotest.(check int) "entering the exit pops it" 0 (TP.live_scopes f);
      Alcotest.(check bool) "no control taint after the exit" true
        (L.is_empty (TP.return_label s f L.empty)))
    [ 10; 10_000 ];
  let f = TP.frame_slots s 1 in
  List.iteri
    (fun k join ->
      iterate s f ~join n 3;
      Alcotest.(check int)
        (Printf.sprintf "%d distinct joins, %d scopes" (k + 1) (k + 1))
        (k + 1) (TP.live_scopes f))
    [ "j0"; "j1"; "j2"; Interp.Fstatic.never_join ]

(* The per-frame scope list must not grow with the trip count: a tainted
   run allocates the same minor words per executed step at lulesh size 5
   on 8 ranks as at size 8 on 27 ranks (four times the steps). *)
let test_taint_words_per_step_flat () =
  let module CT = Interp.Compiled.Taint in
  let words_per_step (size, ranks) =
    let args =
      List.mapi (fun i a -> if i = 0 then VInt size else a)
        Apps.Lulesh.taint_args
    in
    let run () =
      let m = CT.create Apps.Lulesh.program in
      Mpi_sim.Runtime.install_host (module CT)
        { Mpi_sim.Runtime.ranks; rank = 0 } m;
      let w0 = Gc.minor_words () in
      ignore (CT.run m args);
      (Gc.minor_words () -. w0) /. float_of_int (CT.steps_executed m)
    in
    (* The first run lowers the program; time the warm one. *)
    ignore (run ());
    run ()
  in
  let small = words_per_step (5, 8) and large = words_per_step (8, 27) in
  if Float.abs (large -. small) > 0.05 *. Float.min small large then
    Alcotest.failf
      "tainted minor words per step: %.2f at size 5, %.2f at size 8" small
      large

(* A reference model of the control-scope semantics: a stack with one
   entry per tainted branch (push = cons), popped by filtering on block
   entry, and the control taint the fold of what is left.  After every
   operation of a random sequence the policy's control taint, its
   written slots and its scope count must agree with the model. *)
type scope_op =
  | Push of string * int
  | Enter of string
  | Write of int * int

let scope_joins = [| "j0"; "j1"; "j2"; "j3"; Interp.Fstatic.never_join |]
let scope_blocks = [| "j0"; "j1"; "j2"; "j3"; "body" |]

let pp_scope_op = function
  | Push (j, l) -> Printf.sprintf "push %s %d" j l
  | Enter b -> Printf.sprintf "enter %s" b
  | Write (i, l) -> Printf.sprintf "write r%d %d" i l

let arb_scope_ops =
  let open QCheck.Gen in
  let lbl = int_range 0 7 in
  let op =
    frequency
      [
        (3, map2 (fun j l -> Push (j, l)) (oneofa scope_joins) lbl);
        (2, map (fun b -> Enter b) (oneofa scope_blocks));
        (2, map2 (fun i l -> Write (i, l)) (int_range 0 2) lbl);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_scope_op ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 0 80) op)

let prop_scopes_match_model =
  QCheck.Test.make ~count:500
    ~name:"control scopes = per-branch stack model" arb_scope_ops (fun ops ->
      let s = tp_state () in
      let srcs = List.map (L.base (TP.table s)) [ "a"; "b"; "c" ] in
      let label bits =
        List.fold_left L.union L.empty
          (List.filteri (fun i _ -> bits land (1 lsl i) <> 0) srcs)
      in
      let f = TP.frame_slots s 3 in
      let stack = ref [] and slots = Array.make 3 None in
      let ctl () =
        List.fold_left (fun acc (_, l) -> L.union acc l) L.empty !stack
      in
      let slot_agrees i =
        match slots.(i) with None -> true | Some l -> TP.read_slot f i = l
      in
      List.for_all
        (fun op ->
          (match op with
          | Push (join, bits) ->
            TP.scope_push s f ~join (label bits);
            stack := (join, label bits) :: !stack
          | Enter block ->
            enter s f block;
            stack := List.filter (fun (j, _) -> j <> block) !stack
          | Write (i, bits) ->
            TP.write_slot s f i (label bits);
            slots.(i) <- Some (L.union (label bits) (ctl ())));
          TP.return_label s f L.empty = ctl ()
          && TP.live_scopes f
             = List.length (List.sort_uniq compare (List.map fst !stack))
          && List.for_all slot_agrees [ 0; 1; 2 ])
        ops)

(* -- control_flow_taint = false: Taint and Plain agree ---------------------- *)

let loop_fn =
  B.define "f" ~params:[ "n" ] (fun b ->
      let n = B.prim b "taint:n" [ Reg "n" ] in
      B.set b "acc" (Int 0);
      B.for_ b "i" ~from:(Int 0) ~below:n (fun i ->
          B.set b "acc" (B.add b (Reg "acc") i);
          B.work b (Int 1));
      B.ret b (Reg "acc"))

let no_cf = { M.default_config with control_flow_taint = false }

let test_cf_off_matches_plain () =
  let p = prog [ loop_fn ] "f" in
  let m = M.create ~config:no_cf p in
  let mv, ml = M.run m [ VInt 6 ] in
  let pm = P.create ~config:no_cf p in
  let pv, pl = P.run pm [ VInt 6 ] in
  Alcotest.(check bool) "same result value" true (mv = pv);
  Alcotest.(check bool) "plain label is empty" true (Taint.Label.is_empty pl);
  Alcotest.(check (list string))
    "without control taint the data-flow-only result is clean" []
    (names m ml);
  Alcotest.(check int) "same step count" (M.steps_executed m)
    (P.steps_executed pm);
  let iters o = List.map (fun lo -> lo.Obs.lo_iters) (Obs.loop_list o) in
  Alcotest.(check (list int))
    "same loop dynamics"
    (iters (M.observations m))
    (iters (P.observations pm))

let test_cf_off_oracle_passes () =
  List.iter
    (fun f ->
      match
        O.check
          ~config:{ O.interp_config with control_flow_taint = false }
          O.taint_vs_plain (prog [ f ] "f")
      with
      | O.Pass -> ()
      | O.Fail msg -> Alcotest.failf "taint-vs-plain divergence: %s" msg)
    [ loop_fn; never_fn; shared_join ~store:true ]

(* -- Coverage policy --------------------------------------------------------- *)

let test_coverage_counts () =
  let m = C.create (prog [ loop_fn ] "f") in
  ignore (C.run m [ VInt 3 ]);
  let st = C.policy_state m in
  let lo =
    match Obs.loop_list (C.observations m) with
    | [ lo ] -> lo
    | other -> Alcotest.failf "expected one loop, got %d" (List.length other)
  in
  Alcotest.(check int) "loop dynamics: 3 iterations, 1 entry" 4
    (lo.Obs.lo_iters + lo.Obs.lo_entries);
  Alcotest.(check int) "header hits = iterations + entries" 4
    (CP.hits_of st ~func:"f" ~block:lo.Obs.lo_header);
  (* The header is not the function entry, so every arrival traverses an
     intra-function edge: edges into the header sum to its hit count. *)
  let into_header =
    List.fold_left
      (fun acc ((_, _, dst), n) ->
        if String.equal dst lo.Obs.lo_header then acc + n else acc)
      0 (CP.edge_hits st)
  in
  Alcotest.(check int) "edge hits into the header sum to its arrivals" 4
    into_header;
  Alcotest.(check bool) "several blocks covered" true
    (CP.blocks_covered st >= 3);
  Alcotest.(check int) "unexecuted block has zero hits" 0
    (CP.hits_of st ~func:"f" ~block:"no-such-block")

(* -- the step budget through a non-default policy ---------------------------- *)

let test_plain_budget () =
  let pm =
    P.create ~config:{ M.default_config with max_steps = 10 }
      (prog [ loop_fn ] "f")
  in
  try
    ignore (P.run pm [ VInt 1000 ]);
    Alcotest.fail "expected Budget_exceeded"
  with M.Budget_exceeded n ->
    Alcotest.(check int) "budget honoured exactly" 10 n

(* -- writing a new policy ----------------------------------------------------
   The worked example of doc/IR.md, compiled verbatim: a store-counting
   analysis is one small POLICY module plus the functor. *)

module Store_count = struct
  let tracks_labels = true (* [on_store] must fire *)
  let observes_blocks = false

  type state = { labels : Taint.Label.table; mutable stores : int }
  type label = unit
  type fstate = unit

  let create ~control_flow_taint:_ ~hint:_ =
    { labels = Taint.Label.create (); stores = 0 }

  let table s = s.labels
  let clean = ()
  let is_clean _ = true
  let frame_slots _ _ = ()
  let read_slot () _ = ()
  let write_slot _ () _ () = ()
  let bind_slot () _ () = ()
  let join2 _ () () = ()
  let on_alloc _ ~alloc:_ ~size:_ () = ()
  let on_load _ ~alloc:_ ~offset:_ ~base:_ ~index:_ = ()

  let on_store s () ~alloc:_ ~offset:_ ~base:_ ~index:_ ~data:_ =
    s.stores <- s.stores + 1

  let source _ ~param:_ vl = vl
  let export _ () = Taint.Label.empty
  let import _ _ = ()
  let export_args _ args = List.map (fun (v, ()) -> (v, Taint.Label.empty)) args
  let branch_dep _ () () = ()
  let return_label _ () () = ()
  let wants_scope _ () = false
  let scope_push _ () ~join:_ () = ()
  let block_enter _ () ~func:_ ~block:_ ~prev:_ = ()
end

module Stores = Interp.Engine.Make (Store_count)

let test_custom_policy () =
  let store_loop =
    B.define "f" ~params:[ "n" ] (fun b ->
        let arr = B.alloc b (Reg "n") in
        B.for_ b "i" ~from:(Int 0) ~below:(Reg "n") (fun i ->
            B.store b arr i i);
        B.ret_unit b)
  in
  let m = Stores.create (prog [ store_loop ] "f") in
  ignore (Stores.run m [ VInt 5 ]);
  Alcotest.(check int) "five stores counted" 5
    (Stores.policy_state m).Store_count.stores

(* -- per-callpath state of the compiled tier --------------------------------
   The compiled tier resolves loop records, exit-sink targets and
   loop-context memos once per callpath and keeps them across calls.
   [spin]'s loop has a tainted exit test.  [main] reaches it through the
   callpath main/spin before its loop, from inside it (so the enclosing
   context gains a key between two zero-trip calls) and after it; through
   main/via/spin with a bound tainted by another source; and at
   recursion depth 2 (main/spin/spin/spin). *)

let callpath_program =
  Ir.Parser.parse
    {|; program callpaths (entry @main)
func @main(a, b) {
entry:
  %ta = prim !taint:a(%a)
  %tb = prim !taint:b(%b)
  %z = sub %ta, %ta
  %r = call @spin(%z, 0)
  %i = 0
  jump outer.header
outer.header:
  %c = lt %i, 2
  br %c ? outer.body : outer.exit
outer.body:
  %r = call @spin(%z, 0)
  %i = add %i, 1
  jump outer.header
outer.exit:
  %r = call @spin(%ta, 0)
  %r = call @via(%tb)
  %r = call @spin(%ta, 2)
  ret %r
}

func @via(n) {
entry:
  %r = call @spin(%n, 0)
  ret %r
}

func @spin(n, d) {
entry:
  %j = 0
  %acc = 0
  jump loop.header
loop.header:
  %c = lt %j, %n
  br %c ? loop.body : loop.exit
loop.body:
  %k = gt %d, 0
  br %k ? recur : next
recur:
  %d1 = sub %d, 1
  %r = call @spin(%n, %d1)
  %acc = add %acc, %r
  jump next
next:
  %j = add %j, 1
  jump loop.header
loop.exit:
  %acc = add %acc, %j
  ret %acc
}
|}

(* One run's value, steps and every loop and branch record, one line
   each, sorted by key; [lo_enclosing] keeps its recorded order. *)
let callpath_record (type a) (module E : Interp.Engine.S with type t = a) =
  let m = E.create callpath_program in
  let v, l = E.run m [ VInt 3; VInt 2 ] in
  let names l = String.concat "," (Taint.Label.names (E.label_table m) l) in
  let key (cp, b) = cp ^ ":" ^ b in
  let obs = E.observations m in
  let loops =
    List.map
      (fun lo ->
        Printf.sprintf "loop %s iters %d entries %d dep [%s] enclosing [%s]"
          (key (Obs.callpath_key lo.Obs.lo_callpath, lo.Obs.lo_header))
          lo.Obs.lo_iters lo.Obs.lo_entries (names lo.Obs.lo_dep)
          (String.concat " " (List.map key lo.Obs.lo_enclosing)))
      (Obs.loop_list obs)
  and branches =
    List.map
      (fun bo ->
        Printf.sprintf "branch %s taken %d not %d dep [%s]"
          (key (Obs.callpath_key bo.Obs.br_callpath, bo.Obs.br_block))
          bo.Obs.br_taken bo.Obs.br_not_taken (names bo.Obs.br_dep))
      (Obs.branch_list obs)
  in
  Printf.sprintf "value %s label [%s] steps %d"
    (Fmt.str "%a" Ir.Pp.pp_value v) (names l) (E.steps_executed m)
  :: List.sort compare loops
  @ List.sort compare branches

let test_per_callpath_state () =
  let taint = callpath_record (module M) in
  Alcotest.(check (list string))
    "Compiled.Taint = Machine" taint
    (callpath_record (module Interp.Compiled.Taint));
  Alcotest.(check (list string))
    "Compiled.Plain = Plain"
    (callpath_record (module P))
    (callpath_record (module Interp.Compiled.Plain));
  (* The reference itself exercises what the test is about. *)
  List.iter
    (fun row ->
      Alcotest.(check bool) ("reference records " ^ row) true
        (List.mem row taint))
    [
      "loop main/spin:loop.header iters 6 entries 5 dep [a] enclosing \
       [main:outer.header]";
      "loop main/via/spin:loop.header iters 2 entries 1 dep [b] enclosing []";
      "loop main/spin/spin/spin:loop.header iters 27 entries 9 dep [a] \
       enclosing [main/spin:loop.header main/spin/spin:loop.header]";
    ]

(* -- documentation drift ----------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* [Interp.Engine.instr_counters] is the single definition of the
   per-instruction counter names; the counter table in
   doc/OBSERVABILITY.md must list every row verbatim. *)
let test_counter_doc_in_sync () =
  (* cwd is _build/default/test under `dune runtest` (the dep in
     test/dune makes the copy) but the project root under `dune exec`. *)
  let path =
    List.find Sys.file_exists
      [ "../doc/OBSERVABILITY.md"; "doc/OBSERVABILITY.md" ]
  in
  let doc = read_file path in
  List.iter
    (fun (name, descr) ->
      let row = Printf.sprintf "| `%s` | %s |" name descr in
      Alcotest.(check bool)
        (Printf.sprintf "doc/OBSERVABILITY.md lists %s with its meaning" name)
        true (contains doc row))
    Interp.Engine.instr_counters

let tests =
  [
    Alcotest.test_case "$never join taints constant returns" `Quick
      test_never_join;
    Alcotest.test_case "$never scope is function-scoped" `Quick
      test_never_join_is_function_scoped;
    Alcotest.test_case "nested branches sharing ipostdom union" `Quick
      test_nested_shared_ipostdom_union;
    Alcotest.test_case "shared ipostdom pops both scopes" `Quick
      test_nested_shared_ipostdom_pops_both;
    Alcotest.test_case "control_flow_taint=false matches Plain" `Quick
      test_cf_off_matches_plain;
    Alcotest.test_case "taint-vs-plain oracle with cf taint off" `Quick
      test_cf_off_oracle_passes;
    Alcotest.test_case "coverage block/edge counts" `Quick
      test_coverage_counts;
    Alcotest.test_case "Plain honours the step budget" `Quick
      test_plain_budget;
    Alcotest.test_case "a custom policy via Engine.Make" `Quick
      test_custom_policy;
    Alcotest.test_case "instr counter table in sync with doc" `Quick
      test_counter_doc_in_sync;
    Alcotest.test_case "one control scope per join" `Quick
      test_one_scope_per_join;
    Alcotest.test_case "tainted words per step flat in input size" `Quick
      test_taint_words_per_step_flat;
    Alcotest.test_case "per-callpath state = reference on every callpath"
      `Quick test_per_callpath_state;
    Seeded.to_alcotest prop_scopes_match_model;
  ]
