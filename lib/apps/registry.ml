open Ir.Types

type measured = {
  spec : Measure.Spec.app;
  grid : (string * float list) list;
  search : Model.Search.config;
  size_axis : string * float;
}

type t = {
  name : string;
  program : Ir.Types.program;
  args : Ir.Types.value list;
  world : Mpi_sim.Runtime.world;
  model_params : string list;
  aliases : (string * string list) list;
  measured : measured option;
}

(* The paper's grids; ranks-per-node pinned to 8 keeps hardware
   contention constant across the design. *)
let grid size_name p_values size_values =
  [ ("p", p_values); (size_name, size_values); ("r", [ 8. ]) ]

let unmeasured name program args model_params =
  { name; program; args; world = Mpi_sim.Runtime.default_world; model_params;
    aliases = []; measured = None }

let all =
  [
    { name = "lulesh"; program = Lulesh.program; args = Lulesh.taint_args;
      world = Lulesh.taint_world; model_params = Lulesh.model_params;
      aliases = [];
      measured =
        Some
          { spec = Lulesh_spec.app;
            grid = grid "size" Lulesh_spec.p_values Lulesh_spec.size_values;
            search = Model.Search.default_config; size_axis = ("size", 30.) } };
    (* MILC models in (p, size) while the program reads the four lattice
       extents. *)
    { name = "milc"; program = Milc.program; args = Milc.taint_args;
      world = Milc.taint_world; model_params = Milc.model_params;
      aliases = [ ("size", [ "nx"; "ny"; "nz"; "nt" ]) ];
      measured =
        Some
          { spec = Milc_spec.app;
            grid = grid "size" Milc_spec.p_values Milc_spec.size_values;
            search = Model.Search.extended_config;
            size_axis = ("size", 30.) } };
    { name = "minicg"; program = Minicg.program; args = Minicg.taint_args;
      world = Minicg.taint_world; model_params = Minicg.model_params;
      aliases = [];
      measured =
        Some
          { spec = Minicg_spec.app;
            grid = grid "n" Minicg_spec.p_values Minicg_spec.n_values;
            search = Model.Search.default_config; size_axis = ("n", 1.0e6) } };
    unmeasured "iterate" Didactic.iterate_example [ VInt 10; VInt 2 ]
      [ "size"; "step" ];
    unmeasured "foo" Didactic.foo_example [ VInt 3; VInt 1; VInt 0 ]
      [ "a"; "b"; "c" ];
    unmeasured "matrix" Didactic.matrix_init [ VInt 6; VInt 8 ]
      [ "rows"; "cols" ];
    unmeasured "select" Didactic.algorithm_selection [ VInt 2 ] [ "a" ];
  ]

let names = List.map (fun t -> t.name) all
let find name = List.find_opt (fun t -> t.name = name) all

let of_file path =
  let program = Ir.Parser.parse_file path in
  let formals = (find_func program program.entry).fparams in
  (* Unset parameters of a user-supplied program default to 4. *)
  unmeasured path program (List.map (fun _ -> VInt 4) formals) formals

let resolve ?ranks ?(params = []) name =
  let found =
    match find name with
    | Some t -> Ok t
    | None when Sys.file_exists name && Sys.is_directory name ->
      Error (Printf.sprintf "%s is a directory, not a .pir file" name)
    | None when Sys.file_exists name -> Ok (of_file name)
    | None ->
      Error
        (Printf.sprintf "unknown app %s (bundled: %s, or a .pir file path)"
           name (String.concat ", " names))
  in
  Result.map
    (fun t ->
      let formals = (find_func t.program t.program.entry).fparams in
      let args =
        List.map2
          (fun p v ->
            match List.assoc_opt p params with Some x -> VInt x | None -> v)
          formals t.args
      in
      let world =
        match ranks with
        | Some r -> { Mpi_sim.Runtime.ranks = r; rank = 0 }
        | None -> t.world
      in
      { t with args; world })
    found
