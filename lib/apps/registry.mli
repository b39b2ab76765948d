(** The bundled targets, one row each: the program, the arguments and
    MPI world of its tainted run, and the parameters it is modeled in.
    The three simulated applications also carry what the measurement
    workflow needs: the ground-truth spec, the default campaign grid,
    the model search space and the size axis of the contention sweep.
    The CLI resolves its APP argument here, and the model daemon serves
    the measured rows. *)

type measured = {
  spec : Measure.Spec.app;
  grid : (string * float list) list;  (** the default campaign grid *)
  search : Model.Search.config;  (** the search space of per-function fits *)
  size_axis : string * float;
      (** the size parameter and value a ranks-per-node sweep fixes *)
}

type t = {
  name : string;
  program : Ir.Types.program;
  args : Ir.Types.value list;  (** entry arguments of the tainted run *)
  world : Mpi_sim.Runtime.world;
  model_params : string list;
  aliases : (string * string list) list;
      (** a model parameter standing for several program parameters,
          e.g. MILC's [size] for its four lattice extents *)
  measured : measured option;  (** [None]: no measurement spec *)
}

val all : t list
(** lulesh, milc, minicg, iterate, foo, matrix and select, in this
    order; the first is the default target. *)

val names : string list
val find : string -> t option

val resolve :
  ?ranks:int -> ?params:(string * int) list -> string -> (t, string) result
(** The bundled row of that name, or else the program of the .pir file
    at that path: every entry parameter is a model parameter and
    defaults to 4, in {!Mpi_sim.Runtime.default_world}, with no aliases
    and no measurement spec.  [params] override entry arguments by
    parameter name and [ranks] the communicator size.  A directory or a
    name that is neither bundled nor an existing file is an [Error].
    @raise Ir.Parser.Parse_error on a malformed .pir file. *)
