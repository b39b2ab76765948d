(** PMNF hypothesis search — the Extra-P model generator (paper Section
    4.5), including the two published heuristics: single-parameter search
    over a fixed exponent menu, and multi-parameter search restricted to
    combinations of the best single-parameter models.

    The hybrid (tainted) mode threads [constraints] through the search:
    parameters proven irrelevant by the taint analysis are excluded from
    the hypothesis space, and multiplicative terms are only generated for
    parameter pairs whose loops actually nest (Section 5.2's explicit
    multiplicative and additive dependencies). *)

(* How a point's repeated measurements collapse into the value the
   search fits.  The mean is the classic Extra-P choice; the median
   survives corrupted repetitions (broken timers, stragglers) that
   would otherwise drag the fit — the degradation-tolerant mode. *)
type aggregate = Mean | Median

type config = {
  exponents : float list;      (** the set I of polynomial exponents *)
  log_exponents : int list;    (** the set J of logarithm exponents *)
  max_terms : int;             (** n in the PMNF: 1 or 2; the paper uses 2 *)
  min_improvement : float;
      (** a parametric hypothesis must beat the constant model's
          cross-validated error by this relative margin to be accepted —
          the guard against modeling noise on constant functions *)
  aggregate : aggregate;
      (** how repeated measurements collapse into one fitted value *)
  metrics : Obs_metrics.t option;
      (** when set, the search counts candidates generated (per term
          class), evaluated, and rejected into this registry *)
  pool : Par.Pool.t option;
      (** when set, candidate hypotheses are scored on this domain pool;
          the selected model is bit-identical to the serial search *)
  events : Obs_events.sink;
      (** structured event stream: best-so-far improvements and the
          final selection; [Obs_events.disabled] by default *)
}

(* The exact single-parameter search space printed in the paper. *)
let default_config =
  {
    exponents =
      [ 0.; 0.25; 1. /. 3.; 0.5; 2. /. 3.; 0.75; 1.; 1.25; 4. /. 3.; 1.5;
        5. /. 3.; 1.75; 2.; 2.25; 2.5; 8. /. 3.; 2.75; 3. ];
    log_exponents = [ 0; 1; 2 ];
    max_terms = 2;
    (* Extra-P 3.0 (the paper's version) selects the best cross-validated
       fit with no acceptance margin — which is exactly why black-box
       modeling overfits noise on constant functions (B1).  The margin is
       an opt-in guard. *)
    min_improvement = 0.;
    aggregate = Mean;
    metrics = None;
    pool = None;
    events = Obs_events.disabled;
  }

(* The paper notes the sets can be expanded when expectations about the
   application exist; strong-scaling studies need decreasing per-process
   terms, so this variant adds negative polynomial exponents (matching
   Extra-P's configurable search space). *)
let extended_config =
  {
    default_config with
    exponents =
      [ -2.; -1.5; -1.; -2. /. 3.; -0.5; -1. /. 3.; -0.25 ]
      @ default_config.exponents;
  }

type constraints = {
  allowed : string list option;
      (** parameters permitted to appear; [None] = all (black-box mode) *)
  multiplicative : (string -> string -> bool) option;
      (** may these two parameters share a product term? [None] = yes *)
}

let unconstrained = { allowed = None; multiplicative = None }

type result = {
  model : Expr.model;
  error : float;        (** leave-one-out cross-validated SMAPE, percent *)
  rss : float;
  hypotheses_tried : int;
}

(* -- hypothesis machinery ------------------------------------------------ *)

(* A term is a product of per-parameter simple terms; a hypothesis is a
   list of terms whose coefficients are fitted by least squares with an
   intercept.  [select_best] takes every hypothesis of one search as an
   array of indices into a shared term array, so each distinct term is
   evaluated once per search, not once per hypothesis. *)
type term = (string * Expr.simple_term) list

(* The hypotheses one search scores after the constant model.  A
   single-parameter search's are its menu of [m] terms, generated from
   indices as they are scored: each term in menu order, then, with
   [pairs], every pair (i, j) with i < j, i descending and, for each i,
   j descending.  [multi]'s compositions are [Listed]. *)
type candidates = Menu of { m : int; pairs : bool } | Listed of int array list

(* Call [f] on each candidate, in order.  A menu's go through one array
   per size, overwritten from one candidate to the next, so [f] copies
   what it keeps. *)
let iter_candidates f = function
  | Listed l -> List.iter f l
  | Menu { m; pairs } ->
    let one = [| 0 |] in
    for i = 0 to m - 1 do
      one.(0) <- i;
      f one
    done;
    if pairs then begin
      let two = [| 0; 0 |] in
      for i = m - 2 downto 0 do
        two.(0) <- i;
        for j = m - 1 downto i + 1 do
          two.(1) <- j;
          f two
        done
      done
    end

let candidate_list = function
  | Listed l -> l
  | menu ->
    let acc = ref [] in
    iter_candidates (fun cand -> acc := Array.copy cand :: !acc) menu;
    List.rev !acc

let simple_terms config =
  List.concat_map
    (fun e ->
      List.filter_map
        (fun j ->
          if e = 0. && j = 0 then None else Some { Expr.expo = e; logexp = j })
        config.log_exponents)
    config.exponents

let model_of_fit (terms : term array) cand coeffs =
  {
    Expr.const = coeffs.(0);
    terms =
      List.init (Array.length cand) (fun i ->
          { Expr.coeff = coeffs.(i + 1); factors = terms.(cand.(i)) });
  }

(* -- shared-basis scoring ------------------------------------------------ *)

(* The basis one search scores its candidates against.  Column 0 is the
   intercept (all ones), column t + 1 is term t at every point, and the
   last column holds the observations; each column is [n] values, stored
   back to back.  For every column pair a <= b that some candidate uses,
   [sums] holds at [slot a b * (n + 1)] the sum of the pair's products
   over all n rows, then the n sums that leave out row 0, 1, ... n - 1.
   Each sum is accumulated in row order from 0, exactly as
   [Linalg.least_squares] accumulates X^T X and X^T y, so a system filled
   from the table is bit for bit the one a refit from design rows builds.

   The arrays are domain-local and only ever grow: a search reuses the
   previous one's storage, and the submitting domain builds its basis
   before a pool fans the scoring out (workers only read it).  Two
   systhreads of one domain must therefore not search at once.

   Every function of an app is searched over the same coordinates with
   the same menu, so the basis also remembers the coordinates and terms
   its columns were built from.  A search that brings the same ones, bit
   for bit, keeps the term columns and every term x term sum already
   filled, and refills only the observation column and its sums. *)
type basis = {
  mutable n : int;
  mutable ncols : int;
  mutable cols : float array;
  mutable sums : float array;
  mutable filled : int array;  (** slot -> the [gen] that filled it *)
  mutable gen : int;
  mutable source : ((string * float) list array * term array) option;
      (** the coordinates and terms [cols] holds; [None] while the term
          columns are being written *)
}

let basis_key =
  Domain.DLS.new_key (fun () ->
      { n = 0; ncols = 0; cols = [||]; sums = [||]; filled = [||]; gen = 0;
        source = None })

let slot a b = if a <= b then (b * (b + 1) / 2) + a else (a * (a + 1) / 2) + b

(* Bit-for-bit equality of the basis's sources: 0. and -0. differ (x^-1
   is +inf at one and -inf at the other), and a NaN equals itself. *)
let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

let same_binding (p, x) (q, y) = String.equal p q && same_float x y

let same_factor (p, (s : Expr.simple_term)) (q, (t : Expr.simple_term)) =
  String.equal p q && same_float s.expo t.expo && s.logexp = t.logexp

(* Arrays of lists, element by element. *)
let same_rows same a b =
  Array.length a = Array.length b && Array.for_all2 (List.equal same) a b

(* Basis column of a candidate's i-th coefficient. *)
let column cand i = if i = 0 then 0 else cand.(i - 1) + 1

let grow a len = if Array.length a >= len then a else Array.make len 0.

let fill_pair b a c =
  let n = b.n and cols = b.cols and sums = b.sums in
  let off = slot a c * (n + 1) and xa = a * n and xc = c * n in
  (* Row by row: row r's product joins the sums that leave out an earlier
     row, and the sum that leaves out row r is the prefix so far.  Each
     sum still takes its terms in row order from 0, and the n chains no
     longer wait on one another. *)
  let acc = ref 0. in
  for r = 0 to n - 1 do
    let p = cols.(xa + r) *. cols.(xc + r) in
    for i = off + 1 to off + r do
      sums.(i) <- sums.(i) +. p
    done;
    sums.(off + 1 + r) <- !acc;
    acc := !acc +. p
  done;
  sums.(off) <- !acc

(* Evaluate every term at the points, unless the basis already holds
   them, then fill the sums of each column pair the candidates use (the
   intercept-only candidate [||] included) that are not filled yet. *)
let prepare b (terms : term array) coords y (candidates : candidates) =
  let n = Array.length y and m = Array.length terms in
  let ncols = m + 2 in
  let reuse =
    match b.source with
    | Some (c, t) ->
      same_rows same_binding c coords && same_rows same_factor t terms
    | None -> false
  in
  if reuse then
    (* Same n and columns as the search that recorded the source; only
       the observations are new. *)
    for a = 0 to ncols - 1 do
      b.filled.(slot a (ncols - 1)) <- 0
    done
  else begin
    (* A term that raises half way must not leave columns a later search
       could take for complete. *)
    b.source <- None;
    b.n <- n;
    b.ncols <- ncols;
    b.cols <- grow b.cols (ncols * n);
    let cols = b.cols in
    for r = 0 to n - 1 do
      cols.(r) <- 1.
    done;
    Array.iteri
      (fun t factors ->
        for r = 0 to n - 1 do
          cols.(((t + 1) * n) + r) <- Expr.eval_factors factors coords.(r)
        done)
      terms;
    let nslots = ncols * (ncols + 1) / 2 in
    b.sums <- grow b.sums (nslots * (n + 1));
    if Array.length b.filled < nslots then b.filled <- Array.make nslots 0;
    b.gen <- b.gen + 1;
    b.source <- Some (coords, terms)
  end;
  Array.blit y 0 b.cols ((m + 1) * n) n;
  let need a c =
    let s = slot a c in
    if b.filled.(s) <> b.gen then begin
      b.filled.(s) <- b.gen;
      fill_pair b a c
    end
  in
  let ycol = ncols - 1 in
  match candidates with
  | Menu { pairs; _ } ->
    (* Each pair a menu reads, visited once: every column against the
       observations, and the intercept and each term against itself and
       the intercept; with [pairs], every pair of term columns too.  No
       candidate reads (y, y). *)
    for c = 0 to m do
      need c ycol;
      for a = 0 to c do
        if pairs || a = 0 || a = c then need a c
      done
    done
  | Listed l ->
    let need_all cand =
      for i = 0 to Array.length cand do
        need (column cand i) ycol;
        for j = i to Array.length cand do
          need (column cand i) (column cand j)
        done
      done
    in
    need_all [||];
    List.iter need_all l

(* What scoring a candidate leaves for the selection fold: its
   cross-validated error and RSS (an all-float record, stored flat, so
   writing it allocates nothing). *)
type fit = { mutable err : float; mutable rss : float }

(* Worker-local scratch, reused across every candidate a worker scores:
   one linear system per size, the candidate's sum offsets, and the last
   scored candidate's coefficients (full fit first; a two-term
   candidate's refits follow it) and fit. *)
type scratch = {
  mutable systems : (float array array * float array) array;  (** by size *)
  mutable offs : int array;
  mutable coeffs : float array;
  fit : fit;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { systems = [||]; offs = [||]; coeffs = [||];
        fit = { err = 0.; rss = 0. } })

let system sc size =
  let have = Array.length sc.systems in
  if size >= have then
    sc.systems <-
      Array.init (size + 1) (fun s ->
          if s < have then sc.systems.(s)
          else (Array.make_matrix s s 0., Array.make s 0.));
  sc.systems.(size)

(* Copy the system the sums hold at [at] (0 the full fit, 1 + i the fit
   that leaves row i out) into [a] and [rhs], and solve it there.  (The
   annotations keep the copies unboxed.) *)
let solve_at (sums : float array) offs (a : float array array)
    (rhs : float array) size at =
  for i = 0 to size - 1 do
    let row = a.(i) in
    for j = 0 to size - 1 do
      row.(j) <- sums.(offs.((i * size) + j) + at)
    done;
    rhs.(i) <- sums.(offs.((size * size) + i) + at)
  done;
  Linalg.solve_in_place a rhs

(* [Dataset.smape]'s running sum, one (prediction, observation) pair on;
   inlined here so the hot loops below do not box floats. *)
let[@inline] smape_step acc pred obs =
  let denom = (Float.abs pred +. Float.abs obs) /. 2. in
  if denom = 0. then acc else acc +. (Float.abs (pred -. obs) /. denom)

(* A fit's prediction at row [r], in [Expr.eval]'s order. *)
let[@inline] predict cols n cand (coeffs : float array) r =
  let pred = ref coeffs.(0) in
  for t = 1 to Array.length cand do
    pred := !pred +. (coeffs.(t) *. cols.((column cand t * n) + r))
  done;
  !pred

(* [score] below for a two-term hypothesis with more points than
   coefficients, the bulk of every search: the same operations in the
   same order with the loops unrolled, every float in a local and the
   two term columns' offsets hoisted.  The full fit and the n
   leave-one-out refits are one batch of n + 1 symmetric systems: system
   k sits at offset k of each sum, so [Linalg.solve_sym3] leaves the full
   fit in [x.(0..2)] and the refit without row r in [x.(3 (r + 1) ..)].
   Column 0 is all ones and [1. *. k = k] exactly, so the intercept's
   share of each RSS prediction is [0. +. k0], also hoisted. *)
let score3 b sc cand =
  let n = b.n and ycol = b.ncols - 1 in
  let stride = n + 1 and c1 = cand.(0) + 1 and c2 = cand.(1) + 1 in
  let offs = sc.offs in
  offs.(0) <- 0;
  offs.(1) <- slot 0 c1 * stride;
  offs.(2) <- slot 0 c2 * stride;
  offs.(3) <- slot c1 c1 * stride;
  offs.(4) <- slot c1 c2 * stride;
  offs.(5) <- slot c2 c2 * stride;
  offs.(6) <- slot 0 ycol * stride;
  offs.(7) <- slot c1 ycol * stride;
  offs.(8) <- slot c2 ycol * stride;
  sc.coeffs <- grow sc.coeffs (3 * (n + 1));
  let x = sc.coeffs in
  (* A false verdict leaves error and RSS unread, so they are skipped. *)
  Linalg.solve_sym3 b.sums offs (n + 1) x
  && begin
    let cols = b.cols and x1 = c1 * n and x2 = c2 * n and y = ycol * n in
    let k0 = x.(0) and k1 = x.(1) and k2 = x.(2) in
    let k = 0. +. k0 in
    let rss = ref 0. in
    for r = 0 to n - 1 do
      let d =
        cols.(y + r) -. ((k +. (cols.(x1 + r) *. k1)) +. (cols.(x2 + r) *. k2))
      in
      rss := !rss +. (d *. d)
    done;
    (* Left-out predictions enter SMAPE from the last point down. *)
    let total = ref 0. in
    for r = n - 1 downto 0 do
      let l = 3 * (r + 1) in
      let pred =
        (x.(l) +. (x.(l + 1) *. cols.(x1 + r))) +. (x.(l + 2) *. cols.(x2 + r))
      in
      total := smape_step !total pred cols.(y + r)
    done;
    sc.fit.err <- 100. *. !total /. float_of_int n;
    sc.fit.rss <- !rss;
    true
  end

(* Score one candidate against the basis: full fit, RSS, and the
   leave-one-out cross-validated SMAPE (the training SMAPE when there are
   too few points to refit), left in [sc.coeffs] and [sc.fit]; [false]
   when some fit is singular.  Every float equals, operation for
   operation, refitting the candidate from its design rows —
   [Linalg.least_squares] with and without each point, predictions as
   [Expr.eval] computes them, [Dataset.smape] over them — which
   test/refit_search.ml keeps as the reference. *)
let score b sc cand =
  let n = b.n and size = Array.length cand + 1 in
  if n = 0 || n < size then false
  else begin
    if Array.length sc.offs < size * (size + 1) then
      sc.offs <- Array.make (size * (size + 1)) 0;
    if size = 3 && n > size then score3 b sc cand
    else begin
      sc.coeffs <- grow sc.coeffs size;
      let stride = n + 1 and ycol = b.ncols - 1 in
      let offs = sc.offs in
      for i = 0 to size - 1 do
        let ci = column cand i in
        offs.((size * size) + i) <- slot ci ycol * stride;
        for j = 0 to size - 1 do
          offs.((i * size) + j) <- slot ci (column cand j) * stride
        done
      done;
      let a, rhs = system sc size in
      if not (solve_at b.sums offs a rhs size 0) then false
      else begin
        let coeffs = sc.coeffs in
        Array.blit rhs 0 coeffs 0 size;
        let cols = b.cols and y = ycol * n in
        (* The RSS sums each row's prediction from 0 over every column,
           intercept included, as the reference's residual loop does, so
           it cannot reuse [predict]. *)
        let rss = ref 0. in
        for r = 0 to n - 1 do
          let pred = ref 0. in
          for c = 0 to size - 1 do
            pred := !pred +. (cols.((column cand c * n) + r) *. coeffs.(c))
          done;
          let d = cols.(y + r) -. !pred in
          rss := !rss +. (d *. d)
        done;
        let total = ref 0. and ok = ref true in
        if n <= size then
          (* Too few points to refit: the training SMAPE, in point order. *)
          for r = 0 to n - 1 do
            total :=
              smape_step !total (predict cols n cand coeffs r) cols.(y + r)
          done
        else begin
          (* Left-out predictions enter SMAPE from the last point down,
             the order the reference sums them in. *)
          let i = ref (n - 1) in
          while !ok && !i >= 0 do
            if solve_at b.sums offs a rhs size (1 + !i) then
              total :=
                smape_step !total (predict cols n cand rhs !i) cols.(y + !i)
            else ok := false;
            decr i
          done
        end;
        sc.fit.err <- 100. *. !total /. float_of_int n;
        sc.fit.rss <- !rss;
        !ok
      end
    end
  end

(* Search-cost accounting: resolved once per select_best call; a [None]
   registry costs nothing on the scoring path. *)
let bump = function None -> () | Some c -> Obs_metrics.incr c
let bump_n n = function None -> () | Some c -> Obs_metrics.add c n

let candidate_counter metrics cls =
  Option.map
    (fun reg -> Obs_metrics.counter reg ("search.candidates." ^ cls))
    metrics

(* The search.* event vocabulary; doc/OBSERVABILITY.md lists exactly
   these (a drift test compares). *)
let event_names =
  [
    ("search.best", "a candidate hypothesis improved on the best so far");
    ("search.selected", "the search finished and selected its model");
  ]

(* Score every candidate (arrays of indices into [terms]); return the
   winner as a [result].  The constant model (intercept only) always
   participates, first; a parametric hypothesis must beat its
   cross-validated error by [min_improvement] (relative) to be selected —
   otherwise noise on constant functions gets modeled.

   Serially, scoring and selection are one streaming fold, so no scored
   candidate outlives the next one unless it is the best so far.  With a
   pool, the scores fan out over worker domains (each with its own
   scratch, all reading the basis built here) into index-keyed results,
   and selection is the same fold over them in candidate order on the
   submitting domain — the chosen model, error, every search.* counter
   and the event stream are bit-identical to the serial search. *)
let select_best ?(min_improvement = 0.) ?metrics ?pool
    ?(events = Obs_events.disabled) terms candidates points =
  let record_select_s =
    match
      Option.map (fun reg -> Obs_metrics.gauge reg "search.select_s") metrics
    with
    | None -> fun _ -> ()
    | Some g -> Obs_metrics.add_gauge g
  in
  Obs_clock.timed record_select_s @@ fun () ->
  let evaluated =
    Option.map (fun reg -> Obs_metrics.counter reg "search.evaluated") metrics
  in
  let rej_unfit =
    Option.map
      (fun reg -> Obs_metrics.counter reg "search.rejected.unfit")
      metrics
  in
  let rej_threshold =
    Option.map
      (fun reg -> Obs_metrics.counter reg "search.rejected.threshold")
      metrics
  in
  let coords = Array.of_list (List.map fst points) in
  let y = Array.of_list (List.map snd points) in
  let basis = Domain.DLS.get basis_key in
  prepare basis terms coords y candidates;
  let tried = ref 0 in
  let threshold = ref Float.infinity in
  let best = ref None in
  (* Best-so-far improvements are reported from the selection fold on the
     submitting domain, so the event stream is deterministic and
     identical with or without a pool. *)
  let emit_best (s : fit) k =
    if Obs_events.enabled events then
      Obs_events.emit events ~severity:Obs_events.Debug ~component:"search"
        ~fields:
          [
            ("error", Obs_events.Float s.err);
            ("terms", Obs_events.Int k);
            ("tried", Obs_events.Int !tried);
          ]
        "search.best"
  in
  (* [fit] and [coeffs] are read only when [ok]; they and [cand], which
     a menu overwrites with the next candidate, are copied only for a new
     best. *)
  let consider cand ok (s : fit) coeffs =
    incr tried;
    bump evaluated;
    if not ok then bump rej_unfit
    else begin
      let k = Array.length cand in
      (* Prefer lower CV error; break near-ties toward fewer terms, then
         lower RSS. *)
      let better =
        match !best with
        | None -> true
        | Some (bcand, (b : fit), _) ->
          let bk = Array.length bcand in
          s.err < b.err -. 1e-9
          || (Float.abs (s.err -. b.err) <= 1e-9
              && (k < bk || (k = bk && s.rss < b.rss)))
      in
      if better then
        if k = 0 || s.err <= !threshold +. 1e-12 then begin
          let coeffs = Array.sub coeffs 0 (k + 1) in
          best := Some (Array.copy cand, { err = s.err; rss = s.rss }, coeffs);
          emit_best s k
        end
        else bump rej_threshold
    end
  in
  let sc = Domain.DLS.get scratch_key in
  (* [score] may regrow [sc.coeffs], so it runs before the field is read. *)
  let score_serial cand =
    let ok = score basis sc cand in
    consider cand ok sc.fit sc.coeffs
  in
  score_serial [||];
  (match !best with
  | Some (_, s, _) -> threshold := s.err *. (1. -. min_improvement)
  | None -> ());
  (match pool with
  | Some p when Par.Pool.jobs p > 1 ->
    (* A worker's scratch is overwritten by its next candidate, so each
       score travels back as a copy.  [Par.Pool.map] takes a list, so a
       menu is listed here, in the order the serial fold scores it. *)
    let candidates = candidate_list candidates in
    let scored cand =
      let sc = Domain.DLS.get scratch_key in
      if score basis sc cand then
        Some
          ( { err = sc.fit.err; rss = sc.fit.rss },
            Array.sub sc.coeffs 0 (Array.length cand + 1) )
      else None
    in
    List.iter2
      (fun cand -> function
        | Some (s, coeffs) -> consider cand true s coeffs
        | None -> consider cand false sc.fit sc.coeffs)
      candidates
      (Par.Pool.map p scored candidates)
  | _ -> iter_candidates score_serial candidates);
  let result =
    match !best with
    | Some (cand, s, coeffs) ->
      { model = model_of_fit terms cand coeffs; error = s.err; rss = s.rss;
        hypotheses_tried = !tried }
    | None ->
      (* Degenerate data (e.g. no points): report a constant zero model. *)
      { model = Expr.constant 0.; error = 0.; rss = 0.;
        hypotheses_tried = !tried }
  in
  if Obs_events.enabled events then
    Obs_events.emit events ~component:"search"
      ~fields:
        [
          ("error", Obs_events.Float result.error);
          ("terms", Obs_events.Int (List.length result.model.Expr.terms));
          ("tried", Obs_events.Int result.hypotheses_tried);
        ]
      "search.selected";
  result

(* [max_terms] is n in the PMNF; only one- and two-term hypotheses exist. *)
let check_max_terms fn config =
  if config.max_terms <> 1 && config.max_terms <> 2 then
    invalid_arg (fn ^ ": max_terms must be 1 or 2")

(* -- single-parameter search --------------------------------------------- *)

let allowed_param constraints p =
  match constraints.allowed with None -> true | Some l -> List.mem p l

(** Fit a model in one parameter from [(x, y-mean)] samples. *)
let single ?(config = default_config) ?(constraints = unconstrained) ~param
    samples =
  check_max_terms "Model.Search.single" config;
  let points = List.map (fun (x, y) -> ([ (param, x) ], y)) samples in
  let select_best =
    select_best ~min_improvement:config.min_improvement ?metrics:config.metrics
      ?pool:config.pool ~events:config.events
  in
  if not (allowed_param constraints param) then
    select_best [||] (Listed []) points
  else begin
    let terms =
      Array.of_list (List.map (fun t -> [ (param, t) ]) (simple_terms config))
    in
    let m = Array.length terms and pairs = config.max_terms = 2 in
    bump_n m (candidate_counter config.metrics "single_term");
    bump_n
      (if pairs then m * (m - 1) / 2 else 0)
      (candidate_counter config.metrics "two_term");
    (* Candidate order breaks ties between equal scores. *)
    select_best terms (Menu { m; pairs }) points
  end

(* -- multi-parameter search ---------------------------------------------- *)

(* All partitions of a list into non-empty groups (Bell-number many; fine
   for <= 4 parameters). *)
let rec partitions = function
  | [] -> [ [] ]
  | x :: rest ->
    List.concat_map
      (fun part ->
        (* x joins an existing group, or starts its own. *)
        let extended =
          List.mapi
            (fun i _ ->
              List.mapi (fun j g -> if i = j then x :: g else g) part)
            part
        in
        ([ x ] :: part) :: extended)
      (partitions rest)

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
    let s = subsets rest in
    s @ List.map (fun sub -> x :: sub) s

(* The dominant simple term of a fitted single-parameter model: the term
   whose contribution has the largest magnitude anywhere on the sampled
   range — the representative used when composing multi-parameter
   hypotheses.  (Choosing by asymptotic growth instead would mis-rank
   decreasing terms such as p^-1 against small increasing ones.) *)
let dominant_term param (m : Expr.model) xs =
  let magnitude coeff (st : Expr.simple_term) =
    List.fold_left
      (fun acc x -> Float.max acc (Float.abs (coeff *. Expr.eval_simple st x)))
      0. xs
  in
  List.filter_map
    (fun (t : Expr.compound_term) ->
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

(* One basis index per distinct product group, in first-appearance
   order; each hypothesis becomes the array of its groups' indices. *)
let intern (hypotheses : term list list) =
  let index = Hashtbl.create 16 and groups = ref [] in
  let intern_group g =
    match Hashtbl.find_opt index g with
    | Some i -> i
    | None ->
      let i = Hashtbl.length index in
      Hashtbl.add index g i;
      groups := g :: !groups;
      i
  in
  let candidates =
    List.map (fun h -> Array.of_list (List.map intern_group h)) hypotheses
  in
  (Array.of_list (List.rev !groups), candidates)

let group_allowed constraints group =
  match constraints.multiplicative with
  | None -> true
  | Some ok ->
    let rec pairs = function
      | [] | [ _ ] -> true
      | a :: rest -> List.for_all (fun b -> ok a b || ok b a) rest && pairs rest
    in
    pairs (List.map fst group)

(* The configured collapse of a point's repetitions. *)
let point_value config (pt : Dataset.point) =
  match config.aggregate with
  | Mean -> Dataset.point_mean pt
  | Median -> Stats.median pt.Dataset.reps

(** Fit a model in all of [data]'s parameters.  Implements Extra-P's
    multi-parameter heuristic: best single-parameter model per parameter
    (on the slice where the other parameters sit at their minimum), then
    all additive/multiplicative compositions of the dominant terms. *)
let multi ?(config = default_config) ?(constraints = unconstrained) data =
  check_max_terms "Model.Search.multi" config;
  if data.Dataset.points = [] then
    invalid_arg "Model.Search.multi: empty dataset (no observed configurations)";
  let params = List.filter (allowed_param constraints) data.Dataset.params in
  let points =
    List.map
      (fun p -> (p.Dataset.coords, point_value config p))
      data.Dataset.points
  in
  let select_best =
    select_best ~min_improvement:config.min_improvement ?metrics:config.metrics
      ?pool:config.pool ~events:config.events
  in
  match params with
  | [] -> select_best [||] (Listed []) points
  | [ p ] ->
    (* Single free parameter: collapse coordinates and delegate. *)
    let samples =
      List.map (fun pt -> (Dataset.coord pt p, point_value config pt)) data.points
    in
    let r = single ~config ~constraints ~param:p samples in
    (* Re-express the error against the full point set for comparability. *)
    { r with
      error =
        Dataset.smape
          (List.map (fun (c, y) -> (Expr.eval r.model c, y)) points) }
  | _ ->
    (* Phase 1: candidate terms per parameter — the dominant term of the
       best single-parameter model plus the term of the best one-term
       hypothesis (often cleaner when the full model slightly overfits). *)
    let candidate_terms =
      List.filter_map
        (fun p ->
          let fixed =
            List.filter_map
              (fun q ->
                if q = p then None else Some (q, Dataset.min_value data q))
              data.Dataset.params
          in
          let sliced = Dataset.slice data ~fixed in
          let samples =
            List.map
              (fun pt -> (Dataset.coord pt p, point_value config pt))
              sliced.Dataset.points
          in
          if List.length samples < 2 then None
          else begin
            let xs = List.map fst samples in
            let best = single ~config ~constraints ~param:p samples in
            let best1 =
              single ~config:{ config with max_terms = 1 } ~constraints
                ~param:p samples
            in
            let terms =
              List.filter_map
                (fun (m : Expr.model) -> dominant_term p m xs)
                [ best.model; best1.model ]
              |> List.sort_uniq compare
            in
            if terms = [] then None else Some (p, terms)
          end)
        params
    in
    (* Phase 2: all subset/partition compositions over the candidate
       terms. *)
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
                      Some (part : term list)
                    else None))
      |> List.sort_uniq compare
    in
    bump_n (List.length hypotheses)
      (candidate_counter config.metrics "multi_param");
    let terms, candidates = intern hypotheses in
    select_best terms (Listed candidates) points

(* -- degradation-tolerant search ------------------------------------------ *)

(** Outlier-robust fit: per configuration, reject repetitions whose
    modified z-score exceeds [threshold] (MAD-based, see
    {!Stats.mad_filter}), drop configurations left with no repetitions,
    aggregate the survivors by median, and run {!multi}.  Returns the
    result plus the number of rejected measurements — campaigns report
    it so a model fitted from degraded data says so. *)
let multi_robust ?(threshold = 3.5) ?(config = default_config)
    ?(constraints = unconstrained) data =
  let rejected = ref 0 in
  let points =
    List.filter_map
      (fun (pt : Dataset.point) ->
        let kept = Stats.mad_filter ~threshold pt.Dataset.reps in
        rejected := !rejected + (List.length pt.Dataset.reps - List.length kept);
        if kept = [] then None else Some { pt with Dataset.reps = kept })
      data.Dataset.points
  in
  let r =
    multi
      ~config:{ config with aggregate = Median }
      ~constraints
      { data with Dataset.points }
  in
  (r, !rejected)
