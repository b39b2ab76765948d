(** Static per-function facts shared by the interpreted and compiled
    execution tiers: the CFG, the loop forest, and a per-block record of
    everything a control transfer needs (the block itself, loop
    membership, loop exits, and the pre-resolved immediate-postdominator
    join of its terminator).

    This module is the {e single} definition of block resolution and of
    frame-slot assignment.  In particular the first-wins rule for
    duplicate block labels — matching [Ir.Types.find_block]'s linear
    scan — lives only here, so the two tiers cannot drift on which block
    a label denotes or which slot a register occupies. *)

open Ir.Types

(** The join label pushed for control scopes whose branch has no
    immediate postdominator: control taint then persists to function
    exit ("$never" is not a valid block label). *)
let never_join = "$never"

(** Per-block static facts, resolved once when the function is first
    executed or lowered. *)
type binfo = {
  blk : Ir.Types.block;
  bloop : Ir.Loops.loop option;  (** the loop this block heads, if any *)
  bexits : Ir.Loops.loop list;
      (** loops for which this block is an exiting block *)
  bheaders : string list;
      (** headers of this function's loops whose body contains this
          block, so the dynamic loop-stack filter is a membership test
          on a short pre-resolved list *)
  bjoin : string;
      (** the control-scope join of a branch terminating here: the
          block's immediate postdominator, or {!never_join} when only
          the function exit postdominates *)
}

type t = {
  cfg : Ir.Cfg.t;
  forest : Ir.Loops.forest;
  binfos : (string, binfo) Hashtbl.t;
      (** block label -> pre-resolved static facts, so each control
          transfer costs a single lookup instead of a block-list scan
          plus separate loop-forest and exit-table queries *)
  border : binfo array;
      (** the function's blocks in program order with later duplicate
          labels dropped — exactly the blocks reachable through
          label resolution; the lowering pass indexes these *)
  bentry : binfo option;  (** the function's entry block, [None] iff empty *)
}

let of_func (f : Ir.Types.func) =
  let cfg = Ir.Cfg.build f in
  let forest = Ir.Loops.detect cfg in
  let exit_of = Hashtbl.create 8 in
  List.iter
    (fun (l : Ir.Loops.loop) ->
      List.iter
        (fun blk ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt exit_of blk) in
          Hashtbl.replace exit_of blk (l :: cur))
        (Ir.Loops.exiting_blocks l))
    forest.loops;
  let binfo_of (b : Ir.Types.block) =
    {
      blk = b;
      bloop = Ir.Loops.find forest b.label;
      bexits = Option.value ~default:[] (Hashtbl.find_opt exit_of b.label);
      bheaders =
        List.filter_map
          (fun (l : Ir.Loops.loop) ->
            if Ir.Cfg.SSet.mem b.label l.body then Some l.header else None)
          forest.loops;
      bjoin = Option.value ~default:never_join (Ir.Cfg.ipostdom cfg b.label);
    }
  in
  let binfos = Hashtbl.create 16 in
  (* First-wins on duplicate labels, matching [find_block]'s scan. *)
  let border =
    List.filter_map
      (fun (b : Ir.Types.block) ->
        if Hashtbl.mem binfos b.label then None
        else begin
          let bi = binfo_of b in
          Hashtbl.add binfos b.label bi;
          Some bi
        end)
      f.blocks
    |> Array.of_list
  in
  let bentry = if Array.length border = 0 then None else Some border.(0) in
  { cfg; forest; binfos; border; bentry }

(** The frame-slot assignment both tiers address registers through: the
    table from register name to slot, and the array from slot to name.
    Parameters take slots [0 .. k-1] in declaration order; every other
    register of the kept blocks ([border]) follows in first-occurrence
    order, each instruction's operands before its destination and each
    block's terminator operand last.  Built on demand rather than kept in
    {!t}: the lowering pass keeps only the names, the interpreter the
    table. *)
let slots (f : Ir.Types.func) t =
  let slot_of = Hashtbl.create 32 in
  let names = ref [] in
  let reg r =
    if not (Hashtbl.mem slot_of r) then begin
      Hashtbl.add slot_of r (Hashtbl.length slot_of);
      names := r :: !names
    end
  in
  List.iter reg f.fparams;
  Array.iter
    (fun bi ->
      List.iter
        (fun i ->
          List.iter reg (instr_uses i);
          Option.iter reg (instr_def i))
        bi.blk.instrs;
      List.iter reg (term_uses bi.blk.term))
    t.border;
  (slot_of, Array.of_list (List.rev !names))

(** Resolve [label] in [f]'s static facts.  The fallback keeps
    [find_block]'s original error message for labels outside the
    function (and is only reachable for such labels: every label present
    in the function is in [binfos]). *)
let block_in t (f : Ir.Types.func) label =
  match Hashtbl.find_opt t.binfos label with
  | Some b -> b
  | None ->
    {
      blk = find_block f label;
      bloop = None;
      bexits = [];
      bheaders = [];
      bjoin = never_join;
    }
