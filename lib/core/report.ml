(** Human-readable reports mirroring the paper's tables: the two-phase
    pruning overview (Table 2) and the per-parameter coverage counts used
    for parameter selection (Table 3). *)

module SSet = Ir.Cfg.SSet

type overview = {
  ov_app : string;
  ov_functions : int;          (** application functions + MPI routines used *)
  ov_pruned_static : int;
  ov_pruned_dynamic : int;     (** includes functions never executed *)
  ov_kernels : int;
  ov_comm_routines : int;
  ov_mpi_functions : int;
  ov_loops : int;
  ov_loops_pruned_static : int;
  ov_loops_relevant : int;
}

(** Compute the Table 2 row for an analysis, w.r.t. model parameters. *)
let overview (t : Pipeline.t) ~model_params =
  let app = t.program.Ir.Types.pname in
  let mpi = SSet.cardinal (Pipeline.mpi_routines_used t) in
  let count st = List.length (Pipeline.functions_with t ~model_params st) in
  {
    ov_app = app;
    (* The paper counts the MPI routines themselves among the functions. *)
    ov_functions = List.length t.program.Ir.Types.funcs + mpi;
    ov_pruned_static = count Pipeline.Pruned_static;
    ov_pruned_dynamic =
      count Pipeline.Pruned_dynamic + count Pipeline.Unexecuted;
    ov_kernels = count Pipeline.Kernel;
    ov_comm_routines = count Pipeline.Comm_routine;
    ov_mpi_functions = mpi;
    ov_loops = t.static.Static_an.Classify.total_loops;
    ov_loops_pruned_static = t.static.Static_an.Classify.constant_loops;
    ov_loops_relevant = Pipeline.relevant_loops t ~model_params;
  }

let pp_overview ppf ov =
  Fmt.pf ppf
    "@[<v>%s:@ \
     functions: %d total, %d pruned statically, %d pruned dynamically@ \
     kernels/comm/MPI: %d/%d/%d@ \
     loops: %d total, %d pruned statically, %d relevant@]"
    ov.ov_app ov.ov_functions ov.ov_pruned_static ov.ov_pruned_dynamic
    ov.ov_kernels ov.ov_comm_routines ov.ov_mpi_functions ov.ov_loops
    ov.ov_loops_pruned_static ov.ov_loops_relevant

(** Per-parameter coverage: how many (relevant) functions and loops each
    parameter affects — Table 3. *)
type coverage_row = {
  cov_param : string;
  cov_functions : int;
  cov_loops : int;
}

let coverage (t : Pipeline.t) ~params =
  List.map
    (fun p ->
      {
        cov_param = p;
        cov_functions = List.length (Pipeline.functions_affected_by t p);
        cov_loops = Pipeline.loops_affected_by t p;
      })
    params

(** Functions/loops affected by at least one of [params] (the "p, size"
    column of Table 3: not the sum of the columns, since regions can be
    affected by several parameters). *)
let combined_coverage (t : Pipeline.t) ~params =
  let funcs =
    List.concat_map (fun p -> Pipeline.functions_affected_by t p) params
    |> List.sort_uniq compare
    |> List.length
  in
  let module SMap = Ir.Cfg.SMap in
  let loops =
    SMap.fold
      (fun fname fd acc ->
        List.fold_left
          (fun acc (ld : Deps.loop_dep) ->
            if SSet.exists (fun q -> List.mem q params) ld.Deps.ld_params then
              (fname, ld.Deps.ld_header) :: acc
            else acc)
          acc fd.Deps.fd_loops)
      t.deps []
    |> List.sort_uniq compare
    |> List.length
  in
  (funcs, loops)

(** Table of per-function dependency summaries, for debugging and the
    examples. *)
let pp_deps ppf (t : Pipeline.t) =
  let module SMap = Ir.Cfg.SMap in
  SMap.iter
    (fun fname fd ->
      Fmt.pf ppf "@[<h>%-28s params={%a} comm={%a} mult=[%a]@]@ " fname
        Fmt.(list ~sep:(any ",") string)
        (SSet.elements fd.Deps.fd_params)
        Fmt.(list ~sep:(any ",") string)
        (SSet.elements fd.Deps.fd_comm_params)
        Fmt.(list ~sep:(any ";") (pair ~sep:(any "*") string string))
        fd.Deps.fd_multiplicative)
    t.deps
