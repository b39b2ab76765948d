(** Test-only independent reference for the numerics of
    {!Model.Search.single}: every hypothesis is fitted by Householder QR
    on its design matrix, never through the normal equations that
    {!Model.Linalg} solves, and cross-validated by refitting without each
    point.  It shares with the search only the configuration's menu,
    [Expr.eval_simple] for term values and [Dataset.smape] for the
    metric, so it agrees with the search to rounding, not to the bit. *)

module E = Model.Expr
module S = Model.Search

(* A column whose part outside the span of the earlier columns is below
   this fraction of its norm counts as dependent on them. *)
let rank_tol = 1e-12

(** [least_squares rows y]: the c minimising ||A c - y|| for the m x k
    matrix A given by [rows] (m >= k), by Householder QR on copies;
    [None] when a column is numerically dependent on the ones before it
    or c is not finite. *)
let least_squares (rows : float array array) (y : float array) =
  let m = Array.length rows in
  let k = if m = 0 then 0 else Array.length rows.(0) in
  if m = 0 || m < k then None
  else begin
    let a = Array.map Array.copy rows and y = Array.copy y in
    let norm2 j lo =
      let s = ref 0. in
      for i = lo to m - 1 do
        s := !s +. (a.(i).(j) *. a.(i).(j))
      done;
      !s
    in
    let reflect v vv lo get set =
      let s = ref 0. in
      for i = lo to m - 1 do
        s := !s +. (v.(i - lo) *. get i)
      done;
      let f = 2. *. !s /. vv in
      for i = lo to m - 1 do
        set i (get i -. (f *. v.(i - lo)))
      done
    in
    let independent = ref true in
    for j = 0 to k - 1 do
      (* Reflections keep a column's norm, so [norm2 j 0] is the
         original column's. *)
      let tail = sqrt (norm2 j j) in
      if tail <= rank_tol *. sqrt (norm2 j 0) then independent := false
      else begin
        let alpha = if a.(j).(j) > 0. then -.tail else tail in
        let v = Array.init (m - j) (fun i -> a.(j + i).(j)) in
        v.(0) <- v.(0) -. alpha;
        let vv = Array.fold_left (fun s x -> s +. (x *. x)) 0. v in
        for c = j to k - 1 do
          reflect v vv j (fun i -> a.(i).(c)) (fun i x -> a.(i).(c) <- x)
        done;
        reflect v vv j (fun i -> y.(i)) (fun i x -> y.(i) <- x)
      end
    done;
    if not !independent then None
    else begin
      let x = Array.make k 0. in
      for j = k - 1 downto 0 do
        let s = ref y.(j) in
        for c = j + 1 to k - 1 do
          s := !s -. (a.(j).(c) *. x.(c))
        done;
        x.(j) <- !s /. a.(j).(j)
      done;
      if Array.for_all Float.is_finite x then Some x else None
    end
  end

let predict terms coeffs x =
  let p = ref coeffs.(0) in
  List.iteri
    (fun i t -> p := !p +. (coeffs.(i + 1) *. E.eval_simple t x))
    terms;
  !p

(* Full fit, RSS and leave-one-out SMAPE (the training SMAPE when there
   are too few points to refit) of one hypothesis. *)
let score terms xs ys =
  let n = Array.length xs and k = List.length terms + 1 in
  let row x = 1. :: List.map (fun t -> E.eval_simple t x) terms in
  let rows = Array.map (fun x -> Array.of_list (row x)) xs in
  let at coeffs i = (predict terms coeffs xs.(i), ys.(i)) in
  match least_squares rows ys with
  | None -> None
  | Some coeffs ->
    let rss = ref 0. in
    for i = 0 to n - 1 do
      rss := !rss +. ((ys.(i) -. fst (at coeffs i)) ** 2.)
    done;
    let preds =
      if n <= k then Some (List.init n (at coeffs))
      else begin
        let without i a =
          Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list a))
        in
        let refits =
          List.init n (fun i ->
              least_squares (without i rows) (without i ys)
              |> Option.map (fun c -> at c i))
        in
        if List.mem None refits then None
        else Some (List.filter_map Fun.id refits)
      end
    in
    Option.map (fun ps -> (Model.Dataset.smape ps, !rss)) preds

(** The terms {!Model.Search.single} would select from [(x, y)] samples
    with [config]'s menu, and their cross-validated SMAPE: the same
    candidates in the same order and the same selection rule, with no
    acceptance margin. *)
let single ~(config : S.config) samples =
  let xs = Array.of_list (List.map fst samples)
  and ys = Array.of_list (List.map snd samples) in
  let menu =
    List.concat_map
      (fun e ->
        List.filter_map
          (fun j ->
            if e = 0. && j = 0 then None else Some { E.expo = e; logexp = j })
          config.S.log_exponents)
      config.S.exponents
    |> Array.of_list
  in
  let m = Array.length menu in
  let pairs = ref [] in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      pairs := [ menu.(i); menu.(j) ] :: !pairs
    done
  done;
  let candidates =
    ([] :: List.init m (fun i -> [ menu.(i) ]))
    @ if config.S.max_terms = 1 then [] else !pairs
  in
  List.fold_left
    (fun best terms ->
      match (score terms xs ys, best) with
      | None, _ -> best
      | Some s, None -> Some (terms, s)
      | Some (err, rss), Some (bterms, (berr, brss)) ->
        let k = List.length terms and bk = List.length bterms in
        if
          err < berr -. 1e-9
          || (Float.abs (err -. berr) <= 1e-9
              && (k < bk || (k = bk && rss < brss)))
        then Some (terms, (err, rss))
        else best)
    None candidates
  |> Option.map (fun (terms, (err, _)) -> (terms, err))
