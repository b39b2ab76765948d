(** Hybrid empirical modeling (paper Section 4.5): the taint analysis
    restricts the Extra-P search space per function — parameters proven
    irrelevant are removed, and product terms are only allowed for
    parameter pairs whose loops actually nest. *)

module SSet = Ir.Cfg.SSet

type mode =
  | Black_box  (** plain Extra-P: all parameters, all term shapes *)
  | Tainted    (** Perf-Taint: search space restricted by the analysis *)

let mode_name = function Black_box -> "black-box" | Tainted -> "tainted"

(* Dependency set of a name: an application function's taint-derived set,
   or — for an MPI routine — the library-database set (Section 5.3). *)
let dep_set (t : Pipeline.t) fname =
  match Deps.find t.deps fname with
  | Some fd -> fd.Deps.fd_params
  | None ->
    Option.value ~default:SSet.empty
      (Ir.Cfg.SMap.find_opt fname t.Pipeline.mpi_params)

let is_mpi_routine (t : Pipeline.t) fname =
  Deps.find t.deps fname = None
  && Ir.Cfg.SMap.mem fname t.Pipeline.mpi_params

(** Search constraints for [fname]'s model under [mode].  [aliases] maps
    a model parameter to the program parameters it represents (itself is
    always included): MILC's modeling parameter [size] stands for the
    four program parameters nx, ny, nz, nt, so a dependency on any of
    them allows [size] in the model. *)
let constraints_aliased (t : Pipeline.t) mode ~model_params ~aliases fname =
  match mode with
  | Black_box -> Model.Search.unconstrained
  | Tainted ->
    let expand m =
      m :: (match List.assoc_opt m aliases with Some l -> l | None -> [])
    in
    let fd_params = dep_set t fname in
    let covered m = List.exists (fun q -> SSet.mem q fd_params) (expand m) in
    let allowed = List.filter covered model_params in
    let mult a b =
      (* Library-database dependencies have no loop structure to refine
         the term shapes: conservatively allow products. *)
      if is_mpi_routine t fname then covered a && covered b
      else
        List.exists
          (fun a' ->
            List.exists
              (fun b' -> Deps.multiplicative_ok t.deps fname a' b')
              (expand b))
          (expand a)
    in
    { Model.Search.allowed = Some allowed; multiplicative = Some mult }

(** Search constraints for [fname]'s model under [mode], without
    aliases. *)
let constraints t mode ~model_params fname =
  constraints_aliased t mode ~model_params ~aliases:[] fname

(** A function's empirical model shows a dependency the taint analysis
    proved impossible: the signature of external interference such as
    hardware contention (paper C1). *)
let contradicts_taint (t : Pipeline.t) ~fname (result : Model.Search.result) =
  let empirical = SSet.of_list (Model.Expr.parameters result.Model.Search.model) in
  let tainted = Deps.params t.deps fname in
  SSet.diff empirical tainted
