(** Taint labels as sets of input parameters: bit [n] of a label is set
    when it covers the source registered [n]-th, counting from 0.  The
    bits stay below the sign bit, so every label is a non-negative
    immediate [int]. *)

type t = int

let empty : t = 0
let is_empty l = l = 0

let max_sources = Sys.int_size - 1

type table = (string, t) Hashtbl.t  (* source name -> singleton label *)

exception Too_many_sources of string

let create () : table = Hashtbl.create 16

let base tbl name =
  match Hashtbl.find_opt tbl name with
  | Some l -> l
  | None ->
    let n = Hashtbl.length tbl in
    if n = max_sources then raise (Too_many_sources name);
    let l = 1 lsl n in
    Hashtbl.replace tbl name l;
    l

let sources tbl =
  Hashtbl.fold (fun name b acc -> (b, name) :: acc) tbl []
  |> List.sort compare |> List.map snd

let names tbl l =
  Hashtbl.fold
    (fun name b acc -> if l land b <> 0 then name :: acc else acc)
    tbl []
  |> List.sort compare

let union a b = a lor b
let union_all = List.fold_left union empty

let has tbl l name =
  match Hashtbl.find_opt tbl name with
  | Some b -> l land b <> 0
  | None -> false

let pp tbl ppf l =
  if l = 0 then Fmt.string ppf "{}"
  else Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma string) (names tbl l)

(* The [taint:<param>] primitive-name convention: the one syntactic hook
   by which PIR programs declare taint sources (PIR's register_variable).
   Shared by every interpreter policy and by the fuzzing oracles, so the
   recognizer lives next to the labels it creates. *)
let source_prim name =
  match String.index_opt name ':' with
  | Some i when String.sub name 0 i = "taint" ->
    Some (String.sub name (i + 1) (String.length name - i - 1))
  | _ -> None
