(** Performance-model expressions in Extra-P's performance model normal
    form (PMNF, paper Equation 1):

      f(x_1..x_m) = c_0 + sum_k c_k * prod_l x_l^{i_kl} * log2^{j_kl}(x_l)

    A [simple_term] is one x^i * log2(x)^j factor; a [compound_term] is a
    product of simple terms over distinct parameters with a coefficient. *)

type simple_term = {
  expo : float;    (** polynomial exponent i, a small rational *)
  logexp : int;    (** logarithm exponent j *)
}

type compound_term = {
  coeff : float;
  factors : (string * simple_term) list;  (** parameter name -> factor *)
}

type model = {
  const : float;
  terms : compound_term list;
}

let constant c = { const = c; terms = [] }

let is_constant m = m.terms = []

(* Plain log2, not clamped: a log factor vanishes at x = 1, and x <= 0
   yields -inf or nan. *)
let[@inline] log2 x = Float.log x /. Float.log 2.

let[@inline] eval_simple t x =
  let p = if t.expo = 0. then 1. else Float.pow x t.expo in
  let l = if t.logexp = 0 then 1. else Float.pow (log2 x) (float_of_int t.logexp) in
  p *. l

(* The first binding of [param], returned as the pair the list already
   holds, so looking it up allocates nothing. *)
let rec binding param = function
  | [] -> invalid_arg ("Expr.eval: missing parameter " ^ param)
  | ((p, _) as b) :: rest ->
    if String.equal p param then b else binding param rest

(* From 1., times each factor in list order: a loop over locals, so the
   product is never boxed between factors. *)
let eval_factors factors bindings =
  let acc = ref 1. and rest = ref factors in
  while
    match !rest with
    | [] -> false
    | (param, st) :: tl ->
      acc := !acc *. eval_simple st (snd (binding param bindings));
      rest := tl;
      true
  do
    ()
  done;
  !acc

let eval m bindings =
  List.fold_left
    (fun acc t -> acc +. (t.coeff *. eval_factors t.factors bindings))
    m.const m.terms

(** Parameters appearing in the model with a non-degenerate factor. *)
let parameters m =
  List.concat_map
    (fun t ->
      List.filter_map
        (fun (p, st) ->
          if st.expo = 0. && st.logexp = 0 then None else Some p)
        t.factors)
    m.terms
  |> List.sort_uniq compare

(** True when some term multiplies factors of [p1] and [p2] together. *)
let has_interaction m p1 p2 =
  List.exists
    (fun t ->
      let non_trivial p =
        match List.assoc_opt p t.factors with
        | Some st -> not (st.expo = 0. && st.logexp = 0)
        | None -> false
      in
      non_trivial p1 && non_trivial p2)
    m.terms

let pp_simple param ppf t =
  match (t.expo, t.logexp) with
  | 0., 0 -> Fmt.string ppf "1"
  | e, 0 -> if e = 1. then Fmt.string ppf param else Fmt.pf ppf "%s^%g" param e
  | 0., j -> Fmt.pf ppf "log2(%s)%s" param (if j = 1 then "" else Fmt.str "^%d" j)
  | e, j ->
    Fmt.pf ppf "%s^%g*log2(%s)%s" param e param
      (if j = 1 then "" else Fmt.str "^%d" j)

let pp_compound ppf t =
  let non_trivial =
    List.filter (fun (_, st) -> not (st.expo = 0. && st.logexp = 0)) t.factors
  in
  match non_trivial with
  | [] -> Fmt.pf ppf "%.3g" t.coeff
  | fs ->
    Fmt.pf ppf "%.3g * %a" t.coeff
      Fmt.(list ~sep:(any " * ") (fun ppf (p, st) -> pp_simple p ppf st))
      fs

let pp ppf m =
  if m.terms = [] then Fmt.pf ppf "%.4g" m.const
  else
    Fmt.pf ppf "%.4g + %a" m.const Fmt.(list ~sep:(any " + ") pp_compound) m.terms

let to_string m = Fmt.str "%a" pp m

(** Structural equality of the model's shape (parameters and exponents),
    ignoring coefficient values: used to compare a discovered model with a
    ground-truth form. *)
let same_shape a b =
  let shape m =
    List.map
      (fun t ->
        List.filter (fun (_, st) -> not (st.expo = 0. && st.logexp = 0)) t.factors
        |> List.sort compare)
      m.terms
    |> List.sort compare
  in
  shape a = shape b
