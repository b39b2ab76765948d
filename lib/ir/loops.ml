(** Natural-loop detection and the loop-nesting forest of a PIR function.

    A natural loop is identified by its header (the target of one or more
    back edges); its body is found by walking the CFG backwards from each
    back-edge source until the header.  Loops sharing a header are merged,
    per the classical definition (Aho–Sethi–Ullman).  The nesting forest
    orders loops by strict body inclusion and drives the iteration-volume
    composition rules of the paper (Section 4.2). *)

module SMap = Cfg.SMap
module SSet = Cfg.SSet

type loop = {
  header : string;
  body : SSet.t;          (** block labels, header included *)
  latches : string list;  (** sources of back edges into the header *)
  exits : (string * string) list;
      (** (block-in-loop, successor-outside-loop) edges *)
  depth : int;            (** 1 = outermost *)
  parent : string option; (** header of the enclosing loop *)
}

type forest = {
  loops : loop list;      (** ordered outermost-first *)
  by_header : loop SMap.t;
}

(* Body of the natural loop of back edge (latch, header): header plus all
   nodes that reach the latch without passing through the header. *)
let loop_body cfg header latch =
  let body = ref (SSet.singleton header) in
  let rec walk l =
    if not (SSet.mem l !body) then begin
      body := SSet.add l !body;
      List.iter walk (Cfg.predecessors cfg l)
    end
  in
  walk latch;
  !body

let exit_edges cfg body =
  SSet.fold
    (fun l acc ->
      let outside =
        Cfg.successors cfg l |> List.filter (fun s -> not (SSet.mem s body))
      in
      List.map (fun s -> (l, s)) outside @ acc)
    body []

let detect cfg =
  let edges = Cfg.back_edges cfg in
  (* Merge loops with a common header. *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let body = loop_body cfg header latch in
      match Hashtbl.find_opt by_header header with
      | None -> Hashtbl.replace by_header header (body, [ latch ])
      | Some (b, ls) -> Hashtbl.replace by_header header (SSet.union b body, latch :: ls))
    edges;
  let raw =
    Hashtbl.fold
      (fun header (body, latches) acc -> (header, body, latches) :: acc)
      by_header []
  in
  (* Sort by decreasing body size so parents precede children. *)
  let raw =
    List.sort (fun (_, b1, _) (_, b2, _) -> compare (SSet.cardinal b2) (SSet.cardinal b1)) raw
  in
  let find_parent header body placed =
    (* The innermost already-placed loop strictly containing this one. *)
    List.fold_left
      (fun best l ->
        if l.header <> header && SSet.subset body l.body then
          match best with
          | Some b when SSet.cardinal b.body <= SSet.cardinal l.body -> best
          | _ -> Some l
        else best)
      None placed
  in
  let loops =
    List.fold_left
      (fun placed (header, body, latches) ->
        let parent = find_parent header body placed in
        let depth = match parent with None -> 1 | Some p -> p.depth + 1 in
        let l = {
          header; body; latches;
          exits = exit_edges cfg body;
          depth;
          parent = Option.map (fun p -> p.header) parent;
        } in
        placed @ [ l ])
      [] raw
  in
  let by_header =
    List.fold_left (fun m l -> SMap.add l.header l m) SMap.empty loops
  in
  { loops; by_header }

let find forest header = SMap.find_opt header forest.by_header

(** Loops whose parent is [header] ([None] = top-level loops). *)
let children forest header =
  List.filter (fun l -> l.parent = header) forest.loops

(** Innermost loop containing block [label], if any. *)
let innermost_containing forest label =
  List.fold_left
    (fun best l ->
      if SSet.mem label l.body then
        match best with
        | Some b when b.depth >= l.depth -> best
        | _ -> Some l
      else best)
    None forest.loops

(** Blocks with a conditional branch leaving the loop: the loop's exit
    conditions, i.e. the taint sinks of the loop-count analysis. *)
let exiting_blocks loop =
  List.map fst loop.exits |> List.sort_uniq compare

let max_depth forest =
  List.fold_left (fun acc l -> max acc l.depth) 0 forest.loops
