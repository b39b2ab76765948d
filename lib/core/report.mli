(** Human-readable reports mirroring the paper's tables. *)

type overview = {
  ov_app : string;
  ov_functions : int;
  ov_pruned_static : int;
  ov_pruned_dynamic : int;  (** includes never-executed functions *)
  ov_kernels : int;
  ov_comm_routines : int;
  ov_mpi_functions : int;
  ov_loops : int;
  ov_loops_pruned_static : int;
  ov_loops_relevant : int;
}

val overview : Pipeline.t -> model_params:string list -> overview
(** The Table 2 row for an analysis. *)

val pp_overview : overview Fmt.t

type coverage_row = {
  cov_param : string;
  cov_functions : int;
  cov_loops : int;
}

val coverage : Pipeline.t -> params:string list -> coverage_row list
(** Per-parameter coverage (Table 3). *)

val combined_coverage : Pipeline.t -> params:string list -> int * int
(** Functions and loops affected by at least one of the parameters. *)

val pp_deps : Pipeline.t Fmt.t
(** Per-function dependency summary table. *)
