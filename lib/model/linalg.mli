(** Small dense linear algebra for PMNF coefficient fitting. *)

val solve_in_place : float array array -> float array -> bool
(** Gaussian elimination with partial pivoting on [a] x = [b], in place:
    [a] is destroyed and [b] receives x.  [false] when singular or when x
    is not finite. *)

val solve_sym3 : float array -> int array -> int -> float array -> bool
(** [solve_sym3 src offs count x] solves [count] symmetric 3×3 systems in
    one loop.  System k (0 <= k < count) reads a00, a01, a02, a11, a12,
    a22, b0, b1 and b2 at [src.(offs.(j) + k)], j = 0..8 (a10, a20 and
    a21 are a01, a02 and a12), and writes its solution to
    [x.(3k .. 3k + 2)].  Each system's solution is {!solve_in_place}'s on
    a copy of that system, bit for bit, whenever {!solve_in_place}
    succeeds on it.  The result is [true] when every system does: a
    singular pivot or a non-finite solution only clears it, and every
    system is still solved.  Nothing is allocated.
    @raise Invalid_argument when [count] is negative, [offs] holds fewer
    than 9 offsets, [x] fewer than [3 * count] floats, or some read falls
    outside [src]. *)

val solve : float array array -> float array -> float array option
(** {!solve_in_place} on copies of its arguments; [None] when singular. *)

val least_squares : float array array -> float array -> float array option
(** Ordinary least squares via normal equations: coefficients minimising
    ||design * c - y||^2; [None] for under-determined or singular
    systems. *)
