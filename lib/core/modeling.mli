(** Hybrid empirical modeling (paper Section 4.5): the taint analysis
    restricts the Extra-P search space per function. *)

module SSet = Ir.Cfg.SSet

type mode =
  | Black_box  (** plain Extra-P: all parameters, all shapes *)
  | Tainted    (** Perf-Taint: restricted by the analysis *)

val mode_name : mode -> string

val dep_set : Pipeline.t -> string -> SSet.t
(** Taint-derived dependency set of an application function, or the
    library-database set of an MPI routine. *)

val is_mpi_routine : Pipeline.t -> string -> bool

val constraints_aliased :
  Pipeline.t -> mode -> model_params:string list ->
  aliases:(string * string list) list -> string ->
  Model.Search.constraints
(** The search space of [fname]'s model under [mode]: in tainted mode
    only the model parameters its dependency set covers, and products
    only of parameters whose loops nest (any covered pair for an MPI
    routine).  [aliases] maps a model parameter to the program
    parameters it stands for (MILC's [size] stands for nx, ny, nz,
    nt). *)

val constraints :
  Pipeline.t -> mode -> model_params:string list -> string ->
  Model.Search.constraints
(** {!constraints_aliased} without aliases. *)

val contradicts_taint :
  Pipeline.t -> fname:string -> Model.Search.result -> SSet.t
(** Parameters the empirical model uses although taint proves them
    impossible: the contention signature (C1). *)
