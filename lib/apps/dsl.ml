(** Shared construction helpers for the mini applications.

    The mini apps are PIR programs built with [Ir.Builder]; this module
    adds the recurring idioms: registering a performance parameter (the
    paper's [register_variable] one-liner), MPI calls, and the common
    kernel shapes (a loop over elements calling helpers and consuming
    synthetic work). *)

open Ir.Types
module B = Ir.Builder

(** [register b "size" (Reg "size")] marks a parameter exactly like the
    paper's [register_variable(&opts.nx, "size")]: the returned operand
    carries the base taint label. *)
let register b name op = B.prim b ("taint:" ^ name) [ op ]

let comm_size b = B.prim b "mpi_comm_size" []
let comm_rank b = B.prim b "mpi_comm_rank" []

let allreduce b count = B.prim_unit b "mpi_allreduce" [ count ]
let barrier b = B.prim_unit b "mpi_barrier" []
let isend b count = B.prim_unit b "mpi_isend" [ count ]
let irecv b count = B.prim_unit b "mpi_irecv" [ count ]
let wait b = B.prim_unit b "mpi_wait" []
let send b count = B.prim_unit b "mpi_send" [ count ]
let bcast b count = B.prim_unit b "mpi_bcast" [ count ]
let allgather b count = B.prim_unit b "mpi_allgather" [ count ]

(** A leaf function performing only constant work: the tiny C++ accessor /
    helper functions that dominate LULESH's function count and that the
    static phase must prune. *)
let leaf_helper ?(units = 2) name =
  B.define name ~params:[ "x" ] (fun b ->
      B.work b (Int units);
      B.ret b (Reg "x"))

(** A helper with a constant-trip-count loop (e.g. iterating over the 8
    corners of a hexahedral element): still statically prunable thanks to
    the trip-count analysis. *)
let const_loop_helper ?(trip = 8) ?(units = 1) name =
  B.define name ~params:[ "x" ] (fun b ->
      B.for_ b "c" ~from:(Int 0) ~below:(Int trip) (fun _ ->
          B.work b (Int units));
      B.ret b (Reg "x"))

(** An element kernel: [for i < n { helpers; work }].  [callees] are
    invoked once per element with the index. *)
let elem_kernel ?(units = 4) ?(callees = []) name =
  B.define name ~params:[ "n" ] (fun b ->
      B.for_ b "i" ~from:(Int 0) ~below:(Reg "n") (fun i ->
          List.iter (fun callee -> ignore (B.call b callee [ i ])) callees;
          B.work b (Int units));
      B.ret_unit b)

(** Names of every function defined by a list of [func]s. *)
let names funcs = List.map (fun f -> f.fname) funcs
