(** Test-only reference for {!Model.Search}: the same PMNF search with
    no shared basis.  Every candidate builds its own design rows and
    refits from them — one [Linalg.least_squares] for the full fit and
    one per left-out point — and predictions go through [Expr.eval] and
    [Dataset.smape].  The shared-basis scorer must reproduce these
    results bit for bit.

    Observability (metrics, events) and the pool are left out: they
    never change a result. *)

module E = Model.Expr
module S = Model.Search
module D = Model.Dataset
module L = Model.Linalg

type hypothesis = (string * E.simple_term) list list

let simple_terms (config : S.config) =
  List.concat_map
    (fun e ->
      List.filter_map
        (fun j -> if e = 0. && j = 0 then None else Some { E.expo = e; logexp = j })
        config.S.log_exponents)
    config.S.exponents

let design_row (h : hypothesis) coords =
  Array.of_list (1. :: List.map (fun factors -> E.eval_factors factors coords) h)

let model_of_fit (h : hypothesis) coeffs =
  {
    E.const = coeffs.(0);
    terms = List.mapi (fun i factors -> { E.coeff = coeffs.(i + 1); factors }) h;
  }

let residual_sum_of_squares design y coeffs =
  let rss = ref 0. in
  Array.iteri
    (fun r row ->
      let pred = ref 0. in
      Array.iteri (fun c v -> pred := !pred +. (v *. coeffs.(c))) row;
      let d = y.(r) -. !pred in
      rss := !rss +. (d *. d))
    design;
  !rss

(* Full fit, RSS, and leave-one-out SMAPE (training SMAPE when n <= k+1). *)
let eval_hypothesis ~points ~coords ~y (h : hypothesis) =
  let n = Array.length coords in
  let cols = List.length h + 1 in
  let rows = Array.map (fun c -> design_row h c) coords in
  match L.least_squares rows y with
  | None -> None
  | Some coeffs ->
    let rss = residual_sum_of_squares rows y coeffs in
    let m = model_of_fit h coeffs in
    let err =
      if n <= cols then
        Some (D.smape (List.map (fun (c, yv) -> (E.eval m c, yv)) points))
      else begin
        let preds = ref [] and ok = ref true and i = ref 0 in
        while !ok && !i < n do
          let left_out = !i in
          let without a =
            Array.of_list (List.filteri (fun j _ -> j <> left_out) (Array.to_list a))
          in
          let sub = without rows and suby = without y in
          (match L.least_squares sub suby with
          | None -> ok := false
          | Some sub_coeffs ->
            let sm = model_of_fit h sub_coeffs in
            preds := (E.eval sm coords.(left_out), y.(left_out)) :: !preds);
          incr i
        done;
        if !ok then Some (D.smape !preds) else None
      end
    in
    Option.map (fun err -> (m, err, rss, List.length h)) err

let select_best ~min_improvement hypotheses points =
  let coords = Array.of_list (List.map fst points) in
  let y = Array.of_list (List.map snd points) in
  let scored = List.map (eval_hypothesis ~points ~coords ~y) ([] :: hypotheses) in
  let tried = ref 0 in
  let consider best scored_cand =
    incr tried;
    match scored_cand with
    | Some ((_, cerr, crss, cterms) as cand) -> (
      match best with
      | None -> Some cand
      | Some (_, berr, brss, bterms) ->
        if
          cerr < berr -. 1e-9
          || (Float.abs (cerr -. berr) <= 1e-9
              && (cterms < bterms || (cterms = bterms && crss < brss)))
        then Some cand
        else best)
    | None -> best
  in
  let constant_eval, hyp_evals =
    match scored with c :: rest -> (c, rest) | [] -> (None, [])
  in
  let constant = consider None constant_eval in
  let threshold =
    match constant with
    | Some (_, cerr, _, _) -> cerr *. (1. -. min_improvement)
    | None -> Float.infinity
  in
  let best =
    List.fold_left
      (fun best scored_cand ->
        match consider best scored_cand with
        | Some (_, err, _, terms) as cand
          when terms = 0 || err <= threshold +. 1e-12 ->
          cand
        | _ -> best)
      constant hyp_evals
  in
  match best with
  | Some (model, error, rss, _) ->
    { S.model; error; rss; hypotheses_tried = !tried }
  | None ->
    { S.model = E.constant 0.; error = 0.; rss = 0.; hypotheses_tried = !tried }

let allowed_param (constraints : S.constraints) p =
  match constraints.S.allowed with None -> true | Some l -> List.mem p l

let single ~(config : S.config) ~constraints ~param samples =
  let points = List.map (fun (x, y) -> ([ (param, x) ], y)) samples in
  let select_best = select_best ~min_improvement:config.S.min_improvement in
  if not (allowed_param constraints param) then select_best [] points
  else begin
    let terms = simple_terms config in
    let n1 = List.map (fun t -> [ [ (param, t) ] ]) terms in
    let n2 =
      if config.S.max_terms < 2 then []
      else
        let arr = Array.of_list terms in
        let acc = ref [] in
        Array.iteri
          (fun i a ->
            Array.iteri
              (fun j b ->
                if j > i then acc := [ [ (param, a) ]; [ (param, b) ] ] :: !acc)
              arr)
          arr;
        !acc
    in
    select_best (n1 @ n2) points
  end

let rec partitions = function
  | [] -> [ [] ]
  | x :: rest ->
    List.concat_map
      (fun part ->
        let extended =
          List.mapi
            (fun i _ -> List.mapi (fun j g -> if i = j then x :: g else g) part)
            part
        in
        ([ x ] :: part) :: extended)
      (partitions rest)

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
    let s = subsets rest in
    s @ List.map (fun sub -> x :: sub) s

let dominant_term param (m : E.model) xs =
  let magnitude coeff (st : E.simple_term) =
    List.fold_left
      (fun acc x -> Float.max acc (Float.abs (coeff *. E.eval_simple st x)))
      0. xs
  in
  List.filter_map
    (fun (t : E.compound_term) ->
      match List.assoc_opt param t.factors with
      | Some st when not (st.expo = 0. && st.logexp = 0) ->
        Some (magnitude t.coeff st, st)
      | _ -> None)
    m.terms
  |> List.fold_left
       (fun best (mag, st) ->
         match best with
         | Some (bmag, _) when bmag >= mag -> best
         | _ -> Some (mag, st))
       None
  |> Option.map snd

let group_allowed (constraints : S.constraints) group =
  match constraints.S.multiplicative with
  | None -> true
  | Some ok ->
    let rec pairs = function
      | [] | [ _ ] -> true
      | a :: rest -> List.for_all (fun b -> ok a b || ok b a) rest && pairs rest
    in
    pairs (List.map fst group)

let point_value (config : S.config) (pt : D.point) =
  match config.S.aggregate with
  | S.Mean -> D.point_mean pt
  | S.Median -> Model.Stats.median pt.D.reps

let multi ~(config : S.config) ~constraints (data : D.t) =
  let params = List.filter (allowed_param constraints) data.D.params in
  let points =
    List.map (fun p -> (p.D.coords, point_value config p)) data.D.points
  in
  let select_best = select_best ~min_improvement:config.S.min_improvement in
  match params with
  | [] -> select_best [] points
  | [ p ] ->
    let samples =
      List.map (fun pt -> (D.coord pt p, point_value config pt)) data.D.points
    in
    let r = single ~config ~constraints ~param:p samples in
    { r with
      S.error =
        D.smape (List.map (fun (c, y) -> (E.eval r.S.model c, y)) points) }
  | _ ->
    let candidate_terms =
      List.filter_map
        (fun p ->
          let fixed =
            List.filter_map
              (fun q -> if q = p then None else Some (q, D.min_value data q))
              data.D.params
          in
          let sliced = D.slice data ~fixed in
          let samples =
            List.map
              (fun pt -> (D.coord pt p, point_value config pt))
              sliced.D.points
          in
          if List.length samples < 2 then None
          else begin
            let xs = List.map fst samples in
            let best = single ~config ~constraints ~param:p samples in
            let best1 =
              single ~config:{ config with S.max_terms = 1 } ~constraints
                ~param:p samples
            in
            let terms =
              List.filter_map
                (fun (m : E.model) -> dominant_term p m xs)
                [ best.S.model; best1.S.model ]
              |> List.sort_uniq compare
            in
            if terms = [] then None else Some (p, terms)
          end)
        params
    in
    let rec assignments = function
      | [] -> [ [] ]
      | (p, terms) :: rest ->
        let tails = assignments rest in
        List.concat_map
          (fun st -> List.map (fun tail -> (p, st) :: tail) tails)
          terms
    in
    let hypotheses =
      subsets candidate_terms
      |> List.filter (fun s -> s <> [])
      |> List.concat_map assignments
      |> List.concat_map (fun subset ->
             partitions subset
             |> List.filter_map (fun part ->
                    if List.for_all (group_allowed constraints) part then
                      Some (part : hypothesis)
                    else None))
      |> List.sort_uniq compare
    in
    select_best hypotheses points
