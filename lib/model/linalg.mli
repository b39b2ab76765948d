(** Small dense linear algebra for PMNF coefficient fitting. *)

val solve_in_place : float array array -> float array -> bool
(** Gaussian elimination with partial pivoting on [a] x = [b], in place:
    [a] is destroyed and [b] receives x.  [false] when singular or when x
    is not finite. *)

val solve3 : float array -> int array -> int -> float array -> bool
(** [solve3 src offs at x] is {!solve_in_place} on the 3×3 system whose
    entry a_ij is [src.(offs.(3i + j) + at)] and b_i is
    [src.(offs.(9 + i) + at)], held in local floats instead of arrays: the
    verdict and every bit of the solution, written to [x.(0..2)], agree
    with {!solve_in_place} on a copy of the same system.  [x] is left
    untouched when a pivot is singular; nothing is allocated. *)

val solve : float array array -> float array -> float array option
(** {!solve_in_place} on copies of its arguments; [None] when singular. *)

val least_squares : float array array -> float array -> float array option
(** Ordinary least squares via normal equations: coefficients minimising
    ||design * c - y||^2; [None] for under-determined or singular
    systems. *)
