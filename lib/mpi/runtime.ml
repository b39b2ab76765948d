(** Interpreter bindings for the simulated MPI world.

    A tainted run executes one representative rank of an SPMD program
    (the paper runs the real application under DFSan; we interpret rank 0
    and answer MPI queries from the world configuration).  The routines
    declared as taint sources in the library database return values
    carrying the implicit parameter label [p] — this is how, e.g.,
    [MPI_Comm_size] seeds the communicator-size dependency without any
    source annotation. *)

module Label = Taint.Label

type world = {
  ranks : int;          (** communicator size: the implicit parameter p *)
  rank : int;           (** identity of the interpreted rank *)
}

let default_world = { ranks = 8; rank = 0 }

(** Install MPI primitives into an engine instance of any tier and
    policy: the routine semantics only need the prim-registration face
    ({!Interp.Engine.HOST}).  Every routine in the cost database becomes
    callable as a PIR primitive; calls are also recorded as events by
    the engine, which the pipeline later joins with the database to
    derive communication dependencies.  Under a label-free policy the
    [p] source is registered in the policy's private table and dropped
    on import — the returned values are identical either way. *)
let install_host (type a) (module E : Interp.Engine.HOST with type t = a)
    world (m : a) =
  let labels = E.label_table m in
  List.iter
    (fun (r : Costdb.routine) ->
      let fn _t _frame _args =
        match r.name with
        | "mpi_comm_size" ->
          (* The communicator size is tainted with the implicit label p. *)
          (Ir.Types.VInt world.ranks, Interp.Eval.source_label labels "p")
        | "mpi_comm_rank" -> (Ir.Types.VInt world.rank, Label.empty)
        | _ -> (Ir.Types.VUnit, Label.empty)
      in
      E.register_prim m r.Costdb.name fn)
    Costdb.routines
