(** Well-formedness checking for PIR programs.

    Catches malformed programs at construction time rather than mid
    interpretation: duplicate labels or parameters, dangling jump
    targets, unknown call targets, reads of never-written registers, and
    unreachable blocks. *)

open Types
module SSet = Cfg.SSet

type issue = { severity : [ `Error | `Warning ]; where : string; message : string }

let issue severity where fmt =
  Format.kasprintf (fun message -> { severity; where; message }) fmt

let pp_issue ppf i =
  Fmt.pf ppf "%s: %s: %s"
    (match i.severity with `Error -> "error" | `Warning -> "warning")
    i.where i.message

let check_func program f =
  let issues = ref [] in
  let err fmt = Format.kasprintf (fun m -> issues := issue `Error f.fname "%s" m :: !issues) fmt in
  let warn fmt = Format.kasprintf (fun m -> issues := issue `Warning f.fname "%s" m :: !issues) fmt in
  (* Unique labels. *)
  let labels = List.map (fun b -> b.label) f.blocks in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if Hashtbl.mem seen l then err "duplicate block label %s" l
      else Hashtbl.add seen l ())
    labels;
  if f.blocks = [] then err "function has no blocks";
  (* Unique parameters: each binds its own register. *)
  let params = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if Hashtbl.mem params p then err "duplicate parameter %s" p
      else Hashtbl.add params p ())
    f.fparams;
  (* Branch targets exist. *)
  List.iter
    (fun b ->
      List.iter
        (fun s -> if not (Hashtbl.mem seen s) then err "block %s jumps to unknown label %s" b.label s)
        (term_succs b.term))
    f.blocks;
  (* Call targets exist. *)
  let fnames = List.map (fun g -> g.fname) program.funcs in
  List.iter
    (fun b ->
      List.iter
        (fun callee ->
          if not (List.mem callee fnames) then
            err "block %s calls unknown function %s" b.label callee)
        (calls_of_instrs b.instrs))
    f.blocks;
  (* Every register read is written somewhere (or is a parameter).  This is
     a whole-function approximation of def-before-use. *)
  let defs = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace defs p ()) f.fparams;
  List.iter
    (fun b ->
      List.iter
        (fun i -> match instr_def i with Some d -> Hashtbl.replace defs d () | None -> ())
        b.instrs)
    f.blocks;
  List.iter
    (fun b ->
      let check_use r =
        if not (Hashtbl.mem defs r) then
          err "block %s reads undefined register %%%s" b.label r
      in
      List.iter (fun i -> List.iter check_use (instr_uses i)) b.instrs;
      List.iter check_use (term_uses b.term))
    f.blocks;
  (* Reachability and irreducibility. *)
  if f.blocks <> [] && !issues = [] then begin
    let cfg = Cfg.build f in
    let reach = SSet.of_list (Cfg.reachable_labels cfg) in
    List.iter
      (fun b ->
        if not (SSet.mem b.label reach) then warn "block %s is unreachable" b.label)
      f.blocks;
    match Cfg.irreducible_edges cfg with
    | [] -> ()
    | (src, dst) :: _ ->
      warn "irreducible control flow: retreating edge %s -> %s is not a back edge" src dst
  end;
  List.rev !issues

let check_program program =
  let issues = ref [] in
  if not (List.exists (fun f -> f.fname = program.entry) program.funcs) then
    issues := [ issue `Error program.pname "entry function %s not defined" program.entry ];
  let names = Hashtbl.create 16 in
  List.iter
    (fun f ->
      if Hashtbl.mem names f.fname then
        issues := issue `Error program.pname "duplicate function %s" f.fname :: !issues
      else Hashtbl.add names f.fname ())
    program.funcs;
  !issues @ List.concat_map (check_func program) program.funcs

let errors issues = List.filter (fun i -> i.severity = `Error) issues

(** Raise [Ir_error] when the program has validation errors. *)
let check_exn program =
  match errors (check_program program) with
  | [] -> ()
  | e :: _ -> ir_error "%s" (Fmt.str "%a" pp_issue e)
