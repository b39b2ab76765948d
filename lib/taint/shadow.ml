(** Shadow memory: the taint label attached to every program memory cell.

    The DFSan runtime maps each application byte to a shadow label through
    a fixed address transformation; our interpreter heap is a set of
    dynamically allocated arrays, so shadow memory is a parallel label
    array per allocation plus a register-shadow map per stack frame (kept
    by the interpreter itself).

    Allocation handles are small dense non-negative integers in every
    execution tier, so the per-allocation table is a flat growable array
    — the per-load lookup is two bounds checks and two reads, with no
    hashing and no address-record allocation. *)

let no_cells : Label.t array = [||]

type t = {
  mutable arrays : Label.t array array;
      (** indexed by allocation handle; [no_cells] = unregistered *)
  mutable limit : int;  (** handles [>= limit] are unregistered *)
}

(* [hint] presizes the allocation table (expected live allocations);
   capacity only, no semantic effect. *)
let create ?(hint = 0) () =
  { arrays = Array.make (max 64 (min 65536 hint)) no_cells; limit = 0 }

let ensure t alloc =
  if alloc >= Array.length t.arrays then begin
    let cap = max (alloc + 1) (2 * Array.length t.arrays) in
    let bigger = Array.make cap no_cells in
    Array.blit t.arrays 0 bigger 0 (Array.length t.arrays);
    t.arrays <- bigger
  end;
  if alloc >= t.limit then t.limit <- alloc + 1

(** Register a fresh allocation of [size] cells, all initially untainted. *)
let on_alloc t ~alloc ~size =
  if alloc >= 0 then begin
    ensure t alloc;
    t.arrays.(alloc) <- Array.make (max size 0) Label.empty
  end

let cells t alloc =
  if alloc >= 0 && alloc < t.limit then Array.unsafe_get t.arrays alloc
  else no_cells

(** Label of a cell; empty for unknown allocations or out-of-range
    offsets. *)
let get t ~alloc ~offset =
  let a = cells t alloc in
  if offset >= 0 && offset < Array.length a then Array.unsafe_get a offset
  else Label.empty

(** Write a cell's label; silently ignores unknown/out-of-range targets. *)
let set t ~alloc ~offset label =
  let a = cells t alloc in
  if offset >= 0 && offset < Array.length a then
    Array.unsafe_set a offset label

(** Taint every cell of an allocation (used when a taint source writes a
    whole buffer, e.g. [MPI_Comm_size]'s output argument). *)
let taint_all t ~alloc label =
  let a = cells t alloc in
  Array.fill a 0 (Array.length a) label
