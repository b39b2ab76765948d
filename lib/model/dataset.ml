(** Measurement datasets for empirical modeling: a set of parameter-space
    coordinates, each with repeated measurements of the target metric. *)

type point = {
  coords : (string * float) list;  (** parameter name -> value *)
  reps : float list;               (** repeated measurements *)
}

type t = {
  params : string list;
  points : point list;
}

let create params points = { params; points }

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
    let m = mean xs in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
      /. float_of_int (List.length xs - 1)
    in
    sqrt var

(** Coefficient of variation of one point's repetitions. *)
let cov point =
  let m = mean point.reps in
  if m = 0. then 0. else stddev point.reps /. Float.abs m

(** Maximum coefficient of variation across points — the paper filters out
    functions whose data has CoV > 0.1 as too noisy to model (B1). *)
let max_cov t = List.fold_left (fun acc p -> Float.max acc (cov p)) 0. t.points

let point_mean p = mean p.reps

let coord p param =
  match List.assoc_opt param p.coords with
  | Some v -> v
  | None -> invalid_arg ("Dataset.coord: missing parameter " ^ param)

(** Restrict to points where every parameter in [fixed] has the given
    value, projecting measurements onto the remaining free parameter(s). *)
let slice t ~fixed =
  let keep p =
    List.for_all (fun (param, v) -> Float.abs (coord p param -. v) < 1e-9) fixed
  in
  {
    params = List.filter (fun q -> not (List.mem_assoc q fixed)) t.params;
    points = List.filter keep t.points;
  }

(** Distinct sorted values taken by [param] in the dataset. *)
let values t param =
  List.map (fun p -> coord p param) t.points |> List.sort_uniq compare

(** Minimum value of [param]. *)
let min_value t param =
  match values t param with
  | [] -> invalid_arg "Dataset.min_value: empty dataset"
  | v :: _ -> v

(** Symmetric mean absolute percentage error between predictions and
    observed means, in percent (Extra-P's model-selection metric).
    [Search] folds the same per-pair step inline when it scores
    candidates; a bit-identity test in suite_model keeps the two equal. *)
let smape pairs =
  match pairs with
  | [] -> 0.
  | _ ->
    let total =
      List.fold_left
        (fun acc (pred, obs) ->
          let denom = (Float.abs pred +. Float.abs obs) /. 2. in
          if denom = 0. then acc else acc +. (Float.abs (pred -. obs) /. denom))
        0. pairs
    in
    100. *. total /. float_of_int (List.length pairs)

(** Build a dataset from [(coords, reps)] rows. *)
let of_rows params rows =
  { params; points = List.map (fun (coords, reps) -> { coords; reps }) rows }
