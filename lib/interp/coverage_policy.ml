(** The coverage policy: block and edge hit counts over a clean run.

    Like {!Plain_policy} there is no shadow state at all ([label] is
    [unit]); the only hook doing work is [block_enter], which bumps the
    (function, block) hit count and — when the arrival came from a
    predecessor in the same frame — the (function, prev, block) edge
    count.  Feeds the fuzzing corpus heuristics and the [coverage] CLI
    subcommand. *)

(* No shadow labels at all, but [block_enter] is the whole point. *)
let tracks_labels = false
let observes_blocks = true

type state = {
  labels : Taint.Label.table;
  blocks : (string * string, int ref) Hashtbl.t;
      (** (function, block) -> dynamic arrivals *)
  edges : (string * string * string, int ref) Hashtbl.t;
      (** (function, predecessor, block) -> dynamic traversals *)
}

type label = unit
type fstate = unit

let create ~control_flow_taint:_ ~hint =
  {
    labels = Taint.Label.create ();
    blocks = Hashtbl.create (max 64 hint);
    edges = Hashtbl.create (max 64 hint);
  }

let table s = s.labels
let clean = ()
let is_clean () = true
let frame_slots _ _ = ()
let read_slot () _ = ()
let write_slot _ () _ () = ()
let bind_slot () _ () = ()
let join2 _ () () = ()
let on_alloc _ ~alloc:_ ~size:_ () = ()
let on_load _ ~alloc:_ ~offset:_ ~base:() ~index:() = ()
let on_store _ () ~alloc:_ ~offset:_ ~base:() ~index:() ~data:() = ()
let source _ ~param:_ (vl : Ir.Types.value * label) = vl
let export _ () = Taint.Label.empty
let import _ _ = ()
let export_args _ args = List.map (fun (v, ()) -> (v, Taint.Label.empty)) args
let branch_dep _ () () = ()
let return_label _ () () = ()
let wants_scope _ () = false
let scope_push _ () ~join:_ () = ()

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.replace tbl key (ref 1)

let block_enter s () ~func ~block ~prev =
  bump s.blocks (func, block);
  match prev with
  | Some p -> bump s.edges (func, p, block)
  | None -> ()

(* -- accessors (beyond the POLICY signature) ------------------------------ *)

let block_hits s =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) s.blocks []
  |> List.sort compare

let edge_hits s =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) s.edges []
  |> List.sort compare

let blocks_covered s = Hashtbl.length s.blocks
let edges_covered s = Hashtbl.length s.edges

let hits_of s ~func ~block =
  match Hashtbl.find_opt s.blocks (func, block) with
  | Some r -> !r
  | None -> 0
