(** Unit and property tests of the Extra-P reimplementation: regression
    exactness, PMNF recovery of planted single- and multi-parameter
    models, and the search-space constraints used by the hybrid mode. *)

module E = Model.Expr
module S = Model.Search
module D = Model.Dataset

let term ?(logexp = 0) expo = { E.expo; logexp }

let check_shape msg expected (r : S.result) =
  if not (E.same_shape expected r.model) then
    Alcotest.failf "%s: expected shape %s, got %s" msg (E.to_string expected)
      (E.to_string r.model)

let check_close msg expected actual =
  if Float.abs (expected -. actual) > 1e-6 *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* -- linear algebra ------------------------------------------------------- *)

let test_solve_exact () =
  (* 2x + y = 5; x - y = 1  ->  x = 2, y = 1 *)
  match Model.Linalg.solve [| [| 2.; 1. |]; [| 1.; -1. |] |] [| 5.; 1. |] with
  | Some x ->
    check_close "x" 2. x.(0);
    check_close "y" 1. x.(1)
  | None -> Alcotest.fail "system should be solvable"

let test_solve_singular () =
  match Model.Linalg.solve [| [| 1.; 1. |]; [| 2.; 2. |] |] [| 1.; 2. |] with
  | None -> ()
  | Some _ -> Alcotest.fail "singular system must be rejected"

let test_least_squares_line () =
  (* y = 3 + 2x fitted from exact points. *)
  let design = Array.of_list (List.map (fun x -> [| 1.; x |]) [ 1.; 2.; 3.; 5. ]) in
  let y = Array.map (fun r -> 3. +. (2. *. r.(1))) design in
  match Model.Linalg.least_squares design y with
  | Some c ->
    check_close "intercept" 3. c.(0);
    check_close "slope" 2. c.(1)
  | None -> Alcotest.fail "least squares failed"

(* -- single-parameter recovery -------------------------------------------- *)

let samples_of f xs = List.map (fun x -> (x, f x)) xs

let xs = [ 4.; 8.; 16.; 32.; 64. ]

let test_recover_linear () =
  let r = S.single ~param:"p" (samples_of (fun x -> 5. +. (0.5 *. x)) xs) in
  check_shape "linear" { E.const = 0.; terms = [ { coeff = 1.; factors = [ ("p", term 1.) ] } ] } r

let test_recover_quadratic () =
  let r = S.single ~param:"n" (samples_of (fun x -> 1. +. (0.01 *. x *. x)) xs) in
  check_shape "quadratic"
    { E.const = 0.; terms = [ { coeff = 1.; factors = [ ("n", term 2.) ] } ] }
    r

let test_recover_nlogn () =
  let f x = 2. +. (0.1 *. x *. Float.log x /. Float.log 2.) in
  let r = S.single ~param:"n" (samples_of f xs) in
  check_shape "n log n"
    { E.const = 0.;
      terms = [ { coeff = 1.; factors = [ ("n", term ~logexp:1 1.) ] } ] }
    r

let test_recover_sqrt () =
  let r = S.single ~param:"p" (samples_of (fun x -> 1. +. (3. *. sqrt x)) xs) in
  check_shape "sqrt"
    { E.const = 0.; terms = [ { coeff = 1.; factors = [ ("p", term 0.5) ] } ] }
    r

let test_recover_constant () =
  let r = S.single ~param:"p" (samples_of (fun _ -> 7.25) xs) in
  Alcotest.(check bool) "constant model" true (E.is_constant r.model);
  check_close "constant value" 7.25 r.model.E.const

let test_two_term_recovery () =
  (* f = 1 + 2 sqrt(x) + 0.001 x^2: needs n = 2 terms. *)
  let f x = 1. +. (2. *. sqrt x) +. (0.001 *. x *. x) in
  let r = S.single ~param:"p" (samples_of f xs) in
  let expected =
    {
      E.const = 0.;
      terms =
        [
          { E.coeff = 1.; factors = [ ("p", term 0.5) ] };
          { E.coeff = 1.; factors = [ ("p", term 2.) ] };
        ];
    }
  in
  check_shape "two terms" expected r

let test_constraint_excludes_param () =
  let constraints = { S.allowed = Some []; multiplicative = None } in
  let r =
    S.single ~constraints ~param:"p"
      (samples_of (fun x -> 5. +. (0.5 *. x)) xs)
  in
  Alcotest.(check bool) "forced constant" true (E.is_constant r.model)

let test_extended_config_recovers_inverse () =
  (* Strong-scaling shape: c + c/x needs the negative exponents. *)
  let f x = 0.5 +. (100. /. x) in
  let r =
    S.single ~config:S.extended_config ~param:"p" (samples_of f xs)
  in
  check_shape "1/p"
    { E.const = 0.; terms = [ { coeff = 1.; factors = [ ("p", term (-1.)) ] } ] }
    r

let test_default_config_cannot_decrease () =
  (* Without negative exponents the best the default menu can do for a
     decreasing function is... not a decreasing power. *)
  let f x = 0.5 +. (100. /. x) in
  let r = S.single ~param:"p" (samples_of f xs) in
  Alcotest.(check bool) "no negative exponent available" true
    (List.for_all
       (fun (t : E.compound_term) ->
         List.for_all (fun (_, st) -> st.E.expo >= 0.) t.E.factors)
       r.S.model.E.terms)

let test_min_improvement_guards_noise () =
  (* Noisy constant data: pure best-fit occasionally models the noise;
     with the acceptance margin the constant model survives. *)
  let rng = Random.State.make [| 11 |] in
  let noisy_constant =
    List.map (fun x -> (x, 5. +. (0.4 *. (Random.State.float rng 2. -. 1.)))) xs
  in
  let guarded =
    S.single ~config:{ S.default_config with min_improvement = 0.5 }
      ~param:"p" noisy_constant
  in
  Alcotest.(check bool) "guarded fit is constant" true
    (E.is_constant guarded.S.model);
  (* A real dependency still clears a reasonable margin. *)
  let real = samples_of (fun x -> 1. +. (2. *. x)) xs in
  let r =
    S.single ~config:{ S.default_config with min_improvement = 0.5 }
      ~param:"p" real
  in
  Alcotest.(check bool) "real dependency still found" false
    (E.is_constant r.S.model)

(* -- multi-parameter recovery ---------------------------------------------- *)

let grid f =
  List.concat_map
    (fun p ->
      List.map
        (fun n -> ([ ("p", p); ("n", n) ], [ f p n ]))
        [ 10.; 20.; 30.; 40.; 50. ])
    xs

let test_recover_multiplicative () =
  let f p n = 2. +. (1e-4 *. p *. n *. n) in
  let data = D.of_rows [ "p"; "n" ] (grid f) in
  let r = S.multi data in
  let expected =
    {
      E.const = 0.;
      terms = [ { E.coeff = 1.; factors = [ ("p", term 1.); ("n", term 2.) ] } ];
    }
  in
  check_shape "p * n^2" expected r

let test_recover_additive () =
  let f p n = 1. +. (0.3 *. p) +. (0.002 *. n *. n) in
  let data = D.of_rows [ "p"; "n" ] (grid f) in
  let r = S.multi data in
  let expected =
    {
      E.const = 0.;
      terms =
        [
          { E.coeff = 1.; factors = [ ("p", term 1.) ] };
          { E.coeff = 1.; factors = [ ("n", term 2.) ] };
        ];
    }
  in
  check_shape "p + n^2" expected r

let test_multi_constraint_no_interaction () =
  (* True function is multiplicative, but the constraints forbid the
     product term: the additive approximation must be chosen instead. *)
  let f p n = 2. +. (1e-4 *. p *. n *. n) in
  let data = D.of_rows [ "p"; "n" ] (grid f) in
  let constraints =
    { S.allowed = None; multiplicative = Some (fun _ _ -> false) }
  in
  let r = S.multi ~constraints data in
  Alcotest.(check bool)
    "no interaction term" false
    (E.has_interaction r.model "p" "n")

let test_multi_constraint_allowed_param () =
  let f p _n = 2. +. (0.3 *. p) in
  let data = D.of_rows [ "p"; "n" ] (grid f) in
  let constraints = { S.allowed = Some [ "p" ]; multiplicative = None } in
  let r = S.multi ~constraints data in
  Alcotest.(check (list string)) "only p used" [ "p" ] (E.parameters r.model)

(* -- dataset utilities ------------------------------------------------------ *)

let test_cov () =
  let p = { D.coords = [ ("x", 1.) ]; reps = [ 10.; 10.; 10. ] } in
  check_close "zero cov" 0. (D.cov p);
  let q = { D.coords = [ ("x", 1.) ]; reps = [ 9.; 10.; 11. ] } in
  Alcotest.(check bool) "nonzero cov" true (D.cov q > 0.05 && D.cov q < 0.15)

let test_slice () =
  let data =
    D.of_rows [ "p"; "n" ]
      [ ([ ("p", 1.); ("n", 10.) ], [ 1. ]);
        ([ ("p", 1.); ("n", 20.) ], [ 2. ]);
        ([ ("p", 2.); ("n", 10.) ], [ 3. ]) ]
  in
  let s = D.slice data ~fixed:[ ("p", 1.) ] in
  Alcotest.(check int) "sliced points" 2 (List.length s.D.points);
  Alcotest.(check (list string)) "remaining params" [ "n" ] s.D.params

let test_smape_identical () =
  check_close "zero smape" 0. (D.smape [ (1., 1.); (5., 5.) ])

(* -- property tests ---------------------------------------------------------- *)

let prop_regression_exact =
  QCheck.Test.make ~count:100 ~name:"OLS is exact on noise-free lines"
    QCheck.(pair (float_bound_exclusive 10.) (float_bound_exclusive 10.))
    (fun (a, b) ->
      let design =
        Array.of_list (List.map (fun x -> [| 1.; x |]) [ 1.; 2.; 4.; 9. ])
      in
      let y = Array.map (fun r -> a +. (b *. r.(1))) design in
      match Model.Linalg.least_squares design y with
      | Some c -> Float.abs (c.(0) -. a) < 1e-6 && Float.abs (c.(1) -. b) < 1e-6
      | None -> false)

let prop_eval_monotone_terms =
  QCheck.Test.make ~count:100
    ~name:"PMNF terms with positive exponents are monotone on x >= 2"
    QCheck.(pair (int_range 0 17) (int_range 0 2))
    (fun (ei, j) ->
      let e = List.nth S.default_config.S.exponents ei in
      let t = { E.expo = e; logexp = j } in
      QCheck.assume (e > 0. || j > 0);
      E.eval_simple t 8. <= E.eval_simple t 16.)

let prop_smape_bounded =
  QCheck.Test.make ~count:100 ~name:"SMAPE is within [0, 200]"
    QCheck.(small_list (pair (float_bound_exclusive 100.) (float_bound_exclusive 100.)))
    (fun pairs ->
      let s = D.smape pairs in
      s >= 0. && s <= 200.)

(* -- shared-basis scoring = the refit reference ---------------------------- *)

(* Search.single and Search.multi against {!Refit_search}, the same search
   with every candidate refit from its own design rows.  Results must
   agree bit for bit: selected factors, every coefficient, the
   cross-validated error, the RSS and the number of hypotheses tried. *)

type basis_case = {
  bc_config : S.config;
  bc_constraints : S.constraints;
  bc_pooled : bool;
  bc_data : [ `Single of (float * float) list | `Multi of D.t ];
}

let bits = Int64.bits_of_float

let same_bits (a : S.result) (b : S.result) =
  let coeffs (r : S.result) =
    List.map bits (r.model.E.const :: List.map (fun t -> t.E.coeff) r.model.E.terms)
  and factors (r : S.result) = List.map (fun t -> t.E.factors) r.model.E.terms in
  factors a = factors b
  && coeffs a = coeffs b
  && bits a.error = bits b.error
  && bits a.rss = bits b.rss
  && a.hypotheses_tried = b.hypotheses_tried

let show_result (r : S.result) =
  Printf.sprintf "%s err=%h rss=%h tried=%d" (E.to_string r.model) r.error r.rss
    r.hypotheses_tried

let show_basis_case c =
  let pts =
    match c.bc_data with
    | `Single s -> List.map (fun (x, y) -> Printf.sprintf "(%h,%h)" x y) s
    | `Multi d ->
      List.map
        (fun (pt : D.point) ->
          Printf.sprintf "(%s:%s)"
            (String.concat "," (List.map (fun (p, v) -> Printf.sprintf "%s=%h" p v) pt.coords))
            (String.concat "," (List.map (Printf.sprintf "%h") pt.reps)))
        d.D.points
  in
  Printf.sprintf "%d exponents, max_terms %d, min_improvement %g, pooled %b: %s"
    (List.length c.bc_config.S.exponents) c.bc_config.S.max_terms
    c.bc_config.S.min_improvement c.bc_pooled (String.concat " " pts)

(* x values: powers of two up to 4096 (with the extended menu's x^-2 this
   puts normal-equation pivots near the 1e-12 cutoff) or small integers;
   both repeat, so leave-one-out systems go singular. *)
let gen_x =
  QCheck.Gen.(
    oneof
      [ map (fun k -> Float.ldexp 1. k) (int_range 0 12);
        map float_of_int (int_range 1 8) ])

(* Observations from a planted PMNF term with noise [u] in [-1, 1], or
   zeros (all, or where u < -0.4), so SMAPE sees zero denominators. *)
let gen_y_of =
  QCheck.Gen.(
    let* shape = int_range 0 4 in
    let* a = float_range 0. 50. and* b = float_range (-3.) 3. in
    let* e = oneofl [ -1.; 0.5; 1.; 2.; 3. ] and* log = bool in
    return (fun u x ->
        let f = a +. (b *. Float.pow x e *. if log then Float.log2 (x +. 1.) else 1.) in
        if shape = 0 || (shape = 1 && u < -0.4) then 0.
        else f *. (1. +. (0.05 *. u))))

let gen_config =
  QCheck.Gen.(
    let* extended = bool and* max_terms = int_range 1 2 in
    let* min_improvement = oneofl [ 0.; 0.1 ] and* median = bool in
    return
      { (if extended then S.extended_config else S.default_config) with
        S.max_terms;
        min_improvement;
        aggregate = (if median then S.Median else S.Mean) })

let gen_single =
  QCheck.Gen.(
    let* n = frequency [ (1, int_range 2 4); (3, int_range 5 30) ] in
    let* xs = list_repeat n gen_x and* us = list_repeat n (float_range (-1.) 1.) in
    let+ f = gen_y_of in
    `Single (List.map2 (fun x u -> (x, f u x)) xs us))

(* Two-parameter grids of at most 30 points (some dropped), 1-3 reps. *)
let gen_multi =
  QCheck.Gen.(
    let* np = int_range 2 5 and* nq = int_range 2 6 in
    let* pv = list_repeat np gen_x and* qv = list_repeat nq gen_x in
    let* f = gen_y_of and* g = gen_y_of and* cross = bool in
    let* drop = float_range 0. 0.3 in
    let point i (p, q) =
      let* u = float_range (-1.) 1. and* keep = float_range 0. 1. in
      let+ reps = int_range 1 3 and+ jitter = float_range 0.98 1.02 in
      let y = if cross then f u p *. g u q else f u p +. g u q in
      if i > 0 && keep < drop then None
      else
        Some
          ( [ ("p", p); ("q", q) ],
            List.init reps (fun r -> if r = 1 then y *. jitter else y) )
    in
    let grid = List.concat_map (fun p -> List.map (fun q -> (p, q)) qv) pv in
    let+ rows = flatten_l (List.mapi point grid) in
    `Multi (D.of_rows [ "p"; "q" ] (List.filter_map Fun.id rows)))

let gen_constraints =
  QCheck.Gen.(
    let* allowed = oneofl [ None; None; Some [ "p"; "q" ]; Some [ "q" ]; Some [] ] in
    let* multiplicative =
      oneofl [ None; Some (fun _ _ -> false); Some (fun _ _ -> true) ]
    in
    return { S.allowed; multiplicative })

let gen_basis_case =
  QCheck.Gen.(
    let* bc_config = gen_config and* bc_constraints = gen_constraints in
    let* bc_data = frequency [ (3, gen_single); (2, gen_multi) ] in
    let* bc_pooled = frequency [ (9, return false); (1, return true) ] in
    return { bc_config; bc_constraints; bc_pooled; bc_data })

(* The case's coordinates with fresh observations. *)
let gen_refresh c =
  QCheck.Gen.(
    let* f = gen_y_of in
    match c.bc_data with
    | `Single samples ->
      let+ us = list_repeat (List.length samples) (float_range (-1.) 1.) in
      { c with
        bc_data = `Single (List.map2 (fun (x, _) u -> (x, f u x)) samples us) }
    | `Multi d ->
      let fresh (pt : D.point) =
        let+ u = float_range (-1.) 1. in
        let y = f u (D.coord pt "p" +. D.coord pt "q") in
        { pt with D.reps = List.map (fun _ -> y) pt.D.reps }
      in
      let+ points = flatten_l (List.map fresh d.D.points) in
      { c with bc_data = `Multi { d with D.points } })

let with_max_terms max_terms c =
  { c with bc_config = { c.bc_config with S.max_terms } }

(* Searches on one domain, back to back, so each inherits the basis of
   the one before: the same coordinates with fresh observations between
   searches on other coordinates, max_terms 1 after 2 on the same data,
   two searches whose only difference is a 0. against a -0. coordinate
   under the extended menu, where x^-1 is +inf at one and -inf at the
   other, and a dataset whose last point lacks q, which must be refused
   every time. *)
let gen_sequence =
  QCheck.Gen.(
    let* a = gen_basis_case and* b = gen_basis_case in
    let* a1 = gen_refresh a and* a2 = gen_refresh a and* b1 = gen_refresh b in
    let* zero = gen_single and* m = gen_multi and* bc_pooled = bool in
    let signed x =
      match zero with
      | `Single (_ :: rest) ->
        { bc_config = S.extended_config; bc_constraints = S.unconstrained;
          bc_pooled; bc_data = `Single ((x, 1.) :: rest) }
      | _ -> a
    in
    let missing =
      match m with
      | `Multi d ->
        let points =
          List.mapi
            (fun i (pt : D.point) ->
              if i = List.length d.D.points - 1 then
                { pt with D.coords = List.remove_assoc "q" pt.D.coords }
              else pt)
            d.D.points
        in
        { b with bc_constraints = S.unconstrained;
                 bc_data = `Multi { d with D.points } }
      | `Single _ -> b
    in
    let two = with_max_terms 2 a2 in
    return
      [ a; a1; b; two; with_max_terms 1 two; b1; signed 0.; signed (-0.);
        signed 0.; missing; a; missing; a1 ])

let run_basis_case c =
  let run config =
    match c.bc_data with
    | `Single samples ->
      S.single ~config ~constraints:c.bc_constraints ~param:"p" samples
    | `Multi data -> S.multi ~config ~constraints:c.bc_constraints data
  in
  if c.bc_pooled then
    Par.Pool.with_pool ~jobs:2 (fun pool ->
        run { c.bc_config with S.pool = Some pool })
  else run c.bc_config

let refit_basis_case c =
  match c.bc_data with
  | `Single samples ->
    Refit_search.single ~config:c.bc_config ~constraints:c.bc_constraints
      ~param:"p" samples
  | `Multi data ->
    Refit_search.multi ~config:c.bc_config ~constraints:c.bc_constraints data

(* A search's result, or [None] when it refuses its input. *)
let outcome search c =
  match search c with r -> Some r | exception Invalid_argument _ -> None

let prop_shared_basis_matches_refit =
  QCheck.Test.make ~count:150
    ~name:"shared-basis search = refit reference, bit for bit"
    (QCheck.make
       ~print:(fun cases -> String.concat "\n" (List.map show_basis_case cases))
       QCheck.Gen.(
         frequency
           [ (6, map (fun c -> [ c ]) gen_basis_case); (1, gen_sequence) ]))
    (List.for_all (fun c ->
         match (outcome refit_basis_case c, outcome run_basis_case c) with
         | None, None -> true
         | Some expected, Some got when same_bits expected got -> true
         | expected, got ->
           let show = Option.fold ~none:"Invalid_argument" ~some:show_result in
           QCheck.Test.fail_reportf "in %s@.expected %s@.got      %s"
             (show_basis_case c) (show expected) (show got)))

(* -- the batched size-3 kernel = the generic elimination -------------------- *)

(* Symmetric 3x3 systems over the values that steer elimination: signed
   zeros, the 1e-12 singular cutoff and the float just below it,
   subnormals, NaN, infinities, 1e+-300, small integers and random binary
   exponents.  Entries that copy a00 or -a00 force pivot-magnitude ties. *)
let special_entries =
  [| 0.; -0.; 1e-12; -1e-12; 1e-12 *. (1. -. epsilon_float); 1.; -1.;
     Float.nan; Float.infinity; Float.neg_infinity; 1e300; -1e300; 1e-300;
     -1e-300; 4.9e-324; -4.9e-324; 2.2250738585072009e-308 |]

let gen_entry =
  QCheck.Gen.(
    frequency
      [ (3, oneofa special_entries);
        (2, map float_of_int (int_range (-4) 4));
        (4, map2 Float.ldexp (float_range (-2.) 2.) (int_range (-60) 60)) ])

(* A system as [solve_sym3] reads it: a00, a01, a02, a11, a12, a22, then
   b. *)
let gen_sym_system =
  QCheck.Gen.(
    map2
      (fun entries ties ->
        let e = Array.of_list entries in
        List.iteri
          (fun k tie ->
            if tie = 1 then e.(k + 1) <- e.(0)
            else if tie = 2 then e.(k + 1) <- -.e.(0))
          ties;
        e)
      (list_repeat 9 gen_entry)
      (list_repeat 8 (frequency [ (8, return 0); (1, return 1); (1, return 2) ])))

let show_floats a = String.concat " " (List.map (Printf.sprintf "%h") (Array.to_list a))

(* A batch prints one system per line.  20,000 batches of 1-8 systems
   solve at least 20,000 systems per run (90,000 on average). *)
let prop_solve_sym3_matches_solve_in_place =
  QCheck.Test.make ~count:20_000
    ~name:"batched solve_sym3 = solve_in_place"
    (QCheck.make
       ~print:(fun batch ->
         String.concat "\n" (Array.to_list (Array.map show_floats batch)))
       QCheck.Gen.(array_size (int_range 1 8) gen_sym_system))
    (fun batch ->
      (* Entry j of every system is one block of [count] values; the
         blocks lie in reverse order with two junk values before each,
         which the kernel must not read. *)
      let count = Array.length batch in
      let offs = Array.init 9 (fun j -> 2 + ((8 - j) * (count + 2))) in
      let src = Array.make (9 * (count + 2)) 7. in
      Array.iteri
        (fun k e -> Array.iteri (fun j v -> src.(offs.(j) + k) <- v) e)
        batch;
      let x = Array.make (3 * count) Float.nan in
      let ok = Model.Linalg.solve_sym3 src offs count x in
      let expected =
        Array.map
          (fun e ->
            let a =
              [| [| e.(0); e.(1); e.(2) |]; [| e.(1); e.(3); e.(4) |];
                 [| e.(2); e.(4); e.(5) |] |]
            and b = Array.sub e 6 3 in
            (Model.Linalg.solve_in_place a b, b))
          batch
      in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      (* One block moved to run past either end of [src], or an [x] too
         short for the batch, is refused before anything is read. *)
      let refused offs x =
        match Model.Linalg.solve_sym3 src offs count x with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      let moved o =
        let offs = Array.copy offs in
        offs.(count mod 9) <- o;
        offs
      in
      if
        not
          (refused (moved (Array.length src - count + 1)) x
          && refused (moved (-1)) x
          && refused offs (Array.make ((3 * count) - 1) 0.))
      then fail "a read outside src or x was not refused"
      else if ok <> Array.for_all fst expected then
        fail "verdict %b, solve_in_place verdicts [%s]" ok
          (String.concat " "
             (Array.to_list (Array.map (fun (v, _) -> string_of_bool v) expected)))
      else begin
        Array.iteri
          (fun k (v, b) ->
            let got = Array.sub x (3 * k) 3 in
            if v && not (Array.for_all2 (fun u w -> bits u = bits w) b got) then
              fail "system %d: solve_in_place [%s], solve_sym3 [%s]" k
                (show_floats b) (show_floats got))
          expected;
        true
      end)

(* -- an independent reference: Householder QR ------------------------------ *)

(* The five axes a model-e2e pass fits in one parameter, each with the
   menu it is searched with: lulesh p and size, milc size (extended
   menu), minicg n, and the contention check's ranks-per-node sweep. *)
let app_axes =
  [ ("lulesh p", S.default_config, Apps.Lulesh_spec.p_values);
    ("lulesh size", S.default_config, Apps.Lulesh_spec.size_values);
    ("milc size", S.extended_config, Apps.Milc_spec.size_values);
    ("minicg n", S.default_config, Apps.Minicg_spec.n_values);
    ("ranks per node", S.default_config,
     [ 2.; 4.; 6.; 8.; 10.; 12.; 14.; 16.; 18. ]) ]

(* Four planted fits per axis: a constant plus one or two menu terms,
   each growing to 0.5-5x the constant over the axis, with 1% noise. *)
let planted_fits () =
  let rng = Random.State.make [| 23 |] in
  let range lo hi = lo +. Random.State.float rng (hi -. lo) in
  List.concat_map
    (fun (axis, (config : S.config), xs) ->
      let menu = Array.of_list (Refit_search.simple_terms config) in
      let peak t =
        List.fold_left
          (fun m x -> Float.max m (Float.abs (E.eval_simple t x)))
          0. xs
      in
      List.init 4 (fun _ ->
          let planted =
            List.init (1 + Random.State.int rng 2) (fun _ ->
                let t = menu.(Random.State.int rng (Array.length menu)) in
                (t, range 0.5 5. /. peak t))
          in
          let a = range 1. 100. in
          let f x =
            List.fold_left
              (fun acc (t, c) -> acc +. (c *. E.eval_simple t x))
              1. planted
          in
          let samples =
            List.map (fun x -> (x, a *. f x *. (1. +. range (-0.01) 0.01))) xs
          in
          (axis, config, planted, samples)))
    app_axes

let show_terms terms =
  E.to_string
    { E.const = 0.;
      terms =
        List.map (fun (t, coeff) -> { E.coeff; factors = [ ("p", t) ] }) terms }

let test_qr_reference_agrees () =
  List.iter
    (fun (axis, config, planted, samples) ->
      let r = S.single ~config ~param:"p" samples in
      let got = List.map (fun t -> t.E.factors) r.S.model.E.terms in
      match Qr_reference.single ~config samples with
      | None -> Alcotest.failf "%s: the QR reference fitted nothing" axis
      | Some (terms, err) ->
        if
          got <> List.map (fun t -> [ ("p", t) ]) terms
          || Float.abs (err -. r.S.error) > 1e-4
        then
          Alcotest.failf
            "%s, planted %s: search %s (SMAPE %.9f), QR reference %s \
             (SMAPE %.9f)"
            axis (show_terms planted) (E.to_string r.S.model) r.S.error
            (show_terms (List.map (fun t -> (t, 1.)) terms))
            err)
    (planted_fits ())

(* -- robust statistics and fitting ----------------------------------------- *)

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_median_mad () =
  check_close "odd median" 3. (Model.Stats.median [ 5.; 1.; 3. ]);
  check_close "even median" 2.5 (Model.Stats.median [ 4.; 1.; 2.; 3. ]);
  check_close "mad of 1..5" 1. (Model.Stats.mad [ 1.; 2.; 3.; 4.; 5. ]);
  (* The median resists a wild outlier that would drag the mean. *)
  check_close "median resists outlier" 3.
    (Model.Stats.median [ 1.; 2.; 3.; 4.; 1e9 ]);
  Alcotest.(check bool) "empty median is nan" true
    (Float.is_nan (Model.Stats.median []));
  Alcotest.(check bool) "empty mad is nan" true
    (Float.is_nan (Model.Stats.mad []))

let test_mad_filter_rejects_outlier () =
  let kept = Model.Stats.mad_filter [ 10.; 10.1; 9.9; 10.05; 9.95; 500. ] in
  Alcotest.(check int) "outlier dropped" 5 (List.length kept);
  Alcotest.(check bool) "survivors near the median" true
    (List.for_all (fun x -> x < 11.) kept)

let test_mad_filter_keeps_clean () =
  let clean = [ 10.; 10.1; 9.9; 10.05; 9.95 ] in
  Alcotest.(check int) "clean reps untouched"
    (List.length clean)
    (List.length (Model.Stats.mad_filter clean))

let test_mad_filter_zero_mad () =
  (* Identical reps with one corruption: the MAD is zero, so only
     exact-median values survive. *)
  Alcotest.(check (list (float 0.))) "only the median value survives"
    [ 2.; 2.; 2.; 2. ]
    (Model.Stats.mad_filter [ 2.; 2.; 2.; 2.; 77. ])

let test_mad_filter_degenerate () =
  Alcotest.(check (list (float 0.))) "empty passes through" []
    (Model.Stats.mad_filter []);
  Alcotest.(check (list (float 0.))) "singleton passes through" [ 5. ]
    (Model.Stats.mad_filter [ 5. ])

let test_multi_empty_dataset () =
  try
    ignore (S.multi (D.of_rows [ "p" ] []));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S names the cause" msg)
      true
      (string_contains msg "empty dataset")

let test_max_terms_validated () =
  (* n in the PMNF is 1 or 2; anything else is refused by name. *)
  let samples = samples_of (fun x -> 1. +. x) xs in
  let data = D.of_rows [ "p"; "n" ] (grid (fun p n -> 1. +. p +. n)) in
  List.iter
    (fun max_terms ->
      let config = { S.default_config with S.max_terms } in
      List.iter
        (fun (fn, run) ->
          match run () with
          | () -> Alcotest.failf "%s accepted max_terms = %d" fn max_terms
          | exception Invalid_argument msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: message %S names the field" fn msg)
              true
              (string_contains msg ("Model.Search." ^ fn)
              && string_contains msg "max_terms"))
        [ ("single", fun () -> ignore (S.single ~config ~param:"p" samples));
          ("multi", fun () -> ignore (S.multi ~config data)) ])
    [ 0; 3 ]

let test_multi_robust_rejects_corruption () =
  (* Clean linear growth, with every point's last repetition corrupted
     by a 50x broken-timer outlier: the robust fit must reject exactly
     those reps and still recover the linear term, where the classic
     mean-based fit is dragged off the true shape. *)
  let f x = 5. +. (0.5 *. x) in
  let rows =
    List.map
      (fun x ->
        ([ ("p", x) ], [ f x; f x *. 1.01; f x *. 0.99; f x *. 50. ]))
      xs
  in
  let data = D.of_rows [ "p" ] rows in
  let r, rejected = S.multi_robust data in
  Alcotest.(check int) "one rejection per point" (List.length xs) rejected;
  check_shape "linear recovered despite corruption"
    { E.const = 0.; terms = [ { coeff = 1.; factors = [ ("p", term 1.) ] } ] }
    r

let test_multi_robust_clean_matches_multi () =
  let f p n = 2. +. (1e-4 *. p *. n *. n) in
  let data = D.of_rows [ "p"; "n" ] (grid f) in
  let robust, rejected = S.multi_robust data in
  Alcotest.(check int) "nothing rejected on clean data" 0 rejected;
  Alcotest.(check bool) "same shape as the classic fit" true
    (E.same_shape (S.multi data).S.model robust.S.model)

(* -- unfit candidates --------------------------------------------------------- *)

(* A default-menu search over points with repeated or zero coordinates
   rejects many of its 1,432 candidates as unfit (a singular pivot or a
   non-finite coefficient in the full fit or some leave-one-out refit).
   The counts are pinned, and a search on a 2-job pool must count the same
   candidates and select the same fit, bit for bit. *)
let test_unfit_counts () =
  List.iter
    (fun (xs, unfit) ->
      let samples =
        List.mapi (fun i x -> (x, 3. +. x +. (0.1 *. float_of_int i))) xs
      in
      let run pool =
        let reg = Obs_metrics.create () in
        let config = { S.default_config with S.metrics = Some reg; pool } in
        let r = S.single ~config ~param:"p" samples in
        let counters =
          Obs_metrics.counters_with_prefix (Obs_metrics.snapshot reg) "search."
        in
        let count name =
          Option.value ~default:(-1) (List.assoc_opt name counters)
        in
        (r, count "evaluated", count "rejected.unfit")
      in
      let shown = String.concat ", " (List.map (Printf.sprintf "%g") xs) in
      let r, evaluated, got = run None in
      Alcotest.(check int) (shown ^ ": candidates evaluated") 1432 evaluated;
      Alcotest.(check int) (shown ^ ": unfit candidates") unfit got;
      Par.Pool.with_pool ~jobs:2 (fun pool ->
          let pr, pevaluated, pgot = run (Some pool) in
          Alcotest.(check (pair int int))
            (shown ^ ": evaluated and unfit on a 2-job pool")
            (evaluated, got) (pevaluated, pgot);
          if not (same_bits r pr) then
            Alcotest.failf "%s: serial %s, pooled %s" shown (show_result r)
              (show_result pr)))
    [ ([ 1.; 2.; 2.; 5. ], 1378);
      ([ 4.; 8.; 8.; 16. ], 1029);
      ([ 0.; 1.; 2.; 3.; 4. ], 1278);
      ([ 8.; 27.; 64.; 216.; 729. ], 0) ]

let tests =
  [
    Alcotest.test_case "solve 2x2 exactly" `Quick test_solve_exact;
    Alcotest.test_case "reject singular system" `Quick test_solve_singular;
    Alcotest.test_case "least squares on a line" `Quick test_least_squares_line;
    Alcotest.test_case "recover c + c*p" `Quick test_recover_linear;
    Alcotest.test_case "recover c + c*n^2" `Quick test_recover_quadratic;
    Alcotest.test_case "recover c + c*n*log n" `Quick test_recover_nlogn;
    Alcotest.test_case "recover c + c*sqrt p" `Quick test_recover_sqrt;
    Alcotest.test_case "recover constant" `Quick test_recover_constant;
    Alcotest.test_case "recover two-term PMNF" `Quick test_two_term_recovery;
    Alcotest.test_case "constraint forces constant" `Quick
      test_constraint_excludes_param;
    Alcotest.test_case "extended config recovers 1/p" `Quick
      test_extended_config_recovers_inverse;
    Alcotest.test_case "default config has no negative exponents" `Quick
      test_default_config_cannot_decrease;
    Alcotest.test_case "min_improvement guards noisy constants" `Quick
      test_min_improvement_guards_noise;
    Alcotest.test_case "recover multiplicative p*n^2" `Quick
      test_recover_multiplicative;
    Alcotest.test_case "recover additive p + n^2" `Quick test_recover_additive;
    Alcotest.test_case "constraint forbids interaction" `Quick
      test_multi_constraint_no_interaction;
    Alcotest.test_case "constraint restricts parameters" `Quick
      test_multi_constraint_allowed_param;
    Alcotest.test_case "coefficient of variation" `Quick test_cov;
    Alcotest.test_case "dataset slicing" `Quick test_slice;
    Alcotest.test_case "SMAPE of identical series" `Quick test_smape_identical;
    Alcotest.test_case "median and MAD" `Quick test_median_mad;
    Alcotest.test_case "MAD filter rejects an outlier" `Quick
      test_mad_filter_rejects_outlier;
    Alcotest.test_case "MAD filter keeps clean reps" `Quick
      test_mad_filter_keeps_clean;
    Alcotest.test_case "MAD filter with zero MAD" `Quick
      test_mad_filter_zero_mad;
    Alcotest.test_case "MAD filter degenerate inputs" `Quick
      test_mad_filter_degenerate;
    Alcotest.test_case "multi rejects an empty dataset" `Quick
      test_multi_empty_dataset;
    Alcotest.test_case "max_terms other than 1 or 2 is refused" `Quick
      test_max_terms_validated;
    Alcotest.test_case "robust fit rejects corrupted reps" `Quick
      test_multi_robust_rejects_corruption;
    Alcotest.test_case "robust fit matches classic on clean data" `Quick
      test_multi_robust_clean_matches_multi;
    QCheck_alcotest.to_alcotest prop_regression_exact;
    QCheck_alcotest.to_alcotest prop_eval_monotone_terms;
    QCheck_alcotest.to_alcotest prop_smape_bounded;
    Seeded.to_alcotest prop_shared_basis_matches_refit;
    Seeded.to_alcotest prop_solve_sym3_matches_solve_in_place;
    Alcotest.test_case "QR reference selects the same terms" `Quick
      test_qr_reference_agrees;
    Alcotest.test_case "search.rejected.unfit counts pinned" `Quick
      test_unfit_counts;
  ]
