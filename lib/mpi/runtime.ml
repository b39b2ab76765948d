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

(** The MPI primitives over any engine instantiation: the routine
    semantics only need the prim-registration face ({!Interp.Engine.HOST}),
    so the same bindings serve the Taint machine, Plain replay and the
    Coverage runner.  Under a label-free policy the [p] source is
    registered in the policy's private table and dropped on import — the
    returned values are identical either way. *)
module Install (E : Interp.Engine.HOST) = struct
  (** Install MPI primitives into an engine instance.  Every routine in
      the cost database becomes callable as a PIR primitive; calls are
      also recorded as events by the interpreter core, which the pipeline
      later joins with the database to derive communication
      dependencies. *)
  let install world (m : E.t) =
    let labels = E.label_table m in
    List.iter
      (fun (r : Costdb.routine) ->
        let fn _t _frame (args : (Ir.Types.value * Label.t) list) =
          ignore args;
          match r.name with
          | "mpi_comm_size" ->
            (* The communicator size is tainted with the implicit label p. *)
            (Ir.Types.VInt world.ranks, Interp.Eval.source_label labels "p")
          | "mpi_comm_rank" -> (Ir.Types.VInt world.rank, Label.empty)
          | _ -> (Ir.Types.VUnit, Label.empty)
        in
        E.register_prim m r.Costdb.name fn)
      Costdb.routines
end

module Machine_install = Install (Interp.Machine)
module Plain_install = Install (Interp.Plain)
module Coverage_install = Install (Interp.Coverage)

let install = Machine_install.install
let install_plain = Plain_install.install
let install_coverage = Coverage_install.install

(* Tier-generic entry point: install against a first-class engine module,
   so callers parameterized over Interp.Engine.S (interpreted or
   compiled) need no per-tier install function. *)
let install_host (type a) (module E : Interp.Engine.HOST with type t = a)
    world (m : a) =
  let module I = Install (E) in
  I.install world m
