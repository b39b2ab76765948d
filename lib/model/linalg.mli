(** Small dense linear algebra for PMNF coefficient fitting. *)

val solve_in_place : float array array -> float array -> bool
(** Gaussian elimination with partial pivoting on [a] x = [b], in place:
    [a] is destroyed and [b] receives x.  [false] when singular or when x
    is not finite. *)

val solve : float array array -> float array -> float array option
(** {!solve_in_place} on copies of its arguments; [None] when singular. *)

val least_squares : float array array -> float array -> float array option
(** Ordinary least squares via normal equations: coefficients minimising
    ||design * c - y||^2; [None] for under-determined or singular
    systems. *)
