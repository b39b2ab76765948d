(** The applications the daemon serves models for: each simulated app
    with its printed program text (the code component of the catalog
    key) and the default campaign grid — the same grid the [campaign]
    CLI subcommand measures. *)

type app = {
  r_name : string;
  r_app : Measure.Spec.app;
  r_program_text : string Lazy.t;
  r_program_digest : string Lazy.t;  (** [Catalog.digest_text] of the text *)
  r_grid : (string * float list) list;
}

val apps : app list
val names : string list
val find : string -> app option

val machine : Mpi_sim.Machine.t
(** The simulated cluster every served fit measures on. *)

val program_text : app -> string

val program_digest : app -> string
(** [r_program_digest], computed on the first call and shared by every
    later one.  Both lazy values are forced on the calling domain; OCaml
    5 raises if two domains force one at once, so the daemon forces them
    only while resolving requests, on the domain that submits them. *)
