(** Random PIR program generation.

    Generated programs are described by a structured AST ({!prog}) —
    the unit of shrinking — and emitted through {!Ir.Builder}, so every
    program is well-formed and terminating by construction.  The grammar
    covers calls into helper functions, memory aliasing through a shared
    array, float arithmetic, block-argument-free canonical loops,
    irregular (triangular) nests, non-canonical halving loops, and
    branches on tainted conditions. *)

(** Upper bound of a counted loop. *)
type bound =
  | Bconst of int  (** constant *)
  | Bparam of int  (** a marked parameter *)
  | Bhalf of int   (** param / 2 *)
  | Bmem of int    (** param round-tripped through fresh memory *)
  | Bouter         (** induction variable of the enclosing loop *)
  | Bfloat of int  (** param scaled through float arithmetic *)
  | Bshared of int (** load from the shared (aliased) array *)

(** Branch conditions. *)
type cond =
  | Cparam of int * int  (** param i > k *)
  | Cpair of int * int   (** param i < param j *)
  | Cfloat of int        (** float comparison on param i *)

type stmt =
  | Work of int
  | Seq of stmt * stmt
  | For of bound * stmt
  | While_half of int          (** non-canonical halving loop on param i *)
  | If of cond * stmt * stmt
  | Call_helper of int * bound (** call helper [i] with the bound's value *)
  | Shared_store of int * int  (** store param [i] into a shared slot *)
  | Float_work of int          (** float chain on param [i] fed into work *)

type prog = {
  nparams : int;       (** marked entry parameters, at least 1 *)
  helpers : stmt list; (** bodies of the callable helper functions *)
  main : stmt;
}

val to_program : ?name:string -> prog -> Ir.Types.program
(** Emit the AST as a well-formed PIR program.  The entry function
    "main" marks each parameter with the [taint:<name>] primitive;
    parameter indices in the AST wrap modulo [nparams], so shrinking
    [nparams] never produces an invalid reference. *)

val print : prog -> string
(** The emitted program in [.pir] concrete syntax. *)

val gen : prog QCheck.Gen.t

val generate : Random.State.t -> prog
(** One random program from an explicit PRNG state. *)
