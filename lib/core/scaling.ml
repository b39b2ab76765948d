(** Scalability-bug hunting with the fitted models — the flagship
    application of empirical modeling the paper's introduction cites
    (Calotoiu et al., SC'13): extrapolate every function's model to a
    target scale, rank by predicted share of the total time, and flag
    functions whose share grows so fast that they will dominate at scale
    even though they are negligible in the measured range. *)

type entry = {
  e_func : string;
  e_model : Model.Expr.model;
  e_measured : float;   (** predicted time at the baseline configuration *)
  e_projected : float;  (** predicted time at the target configuration *)
  e_share_measured : float;
  e_share_projected : float;
  e_growth : float;     (** projected / measured (1.0 = flat) *)
}

type ranking = {
  baseline : (string * float) list;
  target : (string * float) list;
  entries : entry list;  (** sorted by projected time, descending *)
  total_measured : float;
  total_projected : float;
}

(** Rank fitted per-function models between a baseline and a target
    configuration.  [models] pairs function names with their fitted
    models (per-invocation or aggregate — shares are scale-free as long
    as the metric is consistent). *)
let rank ~baseline ~target models =
  let eval m coords = Float.max 0. (Model.Expr.eval m coords) in
  let raw =
    List.map
      (fun (f, m) -> (f, m, eval m baseline, eval m target))
      models
  in
  let total_measured =
    List.fold_left (fun acc (_, _, b, _) -> acc +. b) 0. raw
  in
  let total_projected =
    List.fold_left (fun acc (_, _, _, t) -> acc +. t) 0. raw
  in
  let entries =
    List.map
      (fun (f, m, b, t) ->
        {
          e_func = f;
          e_model = m;
          e_measured = b;
          e_projected = t;
          e_share_measured = (if total_measured > 0. then b /. total_measured else 0.);
          e_share_projected = (if total_projected > 0. then t /. total_projected else 0.);
          e_growth = (if b > 0. then t /. b else Float.infinity);
        })
      raw
    |> List.sort (fun a b -> compare b.e_projected a.e_projected)
  in
  { baseline; target; entries; total_measured; total_projected }

(** Functions whose share at the target exceeds [share] (default 10%)
    although their measured share was below [measured_below] (default
    5%): the classic scalability-bug signature. *)
let bugs ?(share = 0.10) ?(measured_below = 0.05) ranking =
  List.filter
    (fun e ->
      e.e_share_projected >= share && e.e_share_measured < measured_below)
    ranking.entries

let pp_entry ppf e =
  Fmt.pf ppf "%-32s %8.3gs -> %8.3gs (share %4.1f%% -> %4.1f%%)  %s"
    e.e_func e.e_measured e.e_projected
    (100. *. e.e_share_measured)
    (100. *. e.e_share_projected)
    (Model.Expr.to_string e.e_model)
