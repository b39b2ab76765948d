(** Deterministic measurement noise: multiplicative Gaussian jitter plus
    an additive floor that short functions cannot amortise.  Seeded from
    the run coordinates, so campaigns are reproducible. *)

type t

val create : seed:int -> salt:'a -> t
(** [salt] (any hashable value) mixes the run coordinates into the
    stream. *)

val perturb : ?floor:float -> t -> sigma:float -> float -> float
(** Perturb a duration: multiplicative noise at relative level [sigma]
    plus additive jitter at scale [floor] (seconds).  Never negative. *)
