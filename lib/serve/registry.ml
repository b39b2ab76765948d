(* The apps the daemon can serve: the measured rows of the app table.
   The program text entering the catalog key is the printed PIR of the
   real program, so a change to an app's code changes every key derived
   from it.  The text never changes while the process runs, so its
   digest is taken once, on first use, not per request. *)

type app = {
  r_name : string;
  r_app : Measure.Spec.app;
  r_program_text : string Lazy.t;
  r_program_digest : string Lazy.t;
  r_grid : (string * float list) list;
}

let apps =
  List.filter_map
    (fun (t : Apps.Registry.t) ->
      Option.map
        (fun (m : Apps.Registry.measured) ->
          let text = lazy (Ir.Pp.program_to_string t.program) in
          { r_name = t.name; r_app = m.spec; r_program_text = text;
            r_program_digest = lazy (Catalog.digest_text (Lazy.force text));
            r_grid = m.grid })
        t.measured)
    Apps.Registry.all

let names = List.map (fun a -> a.r_name) apps
let find name = List.find_opt (fun a -> a.r_name = name) apps
let machine = Mpi_sim.Machine.skylake_cluster
let program_text a = Lazy.force a.r_program_text
let program_digest a = Lazy.force a.r_program_digest
