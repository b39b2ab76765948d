(** The policy-parameterized PIR execution engine (see engine.mli).

    The functor body is the former [Machine] interpreter with every
    shadow-related operation routed through the policy: the engine keeps
    program values, the heap, frames, observations, metrics, tracing and
    the step budget; the policy keeps shadow registers, shadow memory,
    control scopes — or nothing at all.

    This tier walks the IR tree directly and keeps register values in a
    string-keyed table; only the policy's shadow registers go through the
    {!Fstatic.slots} numbering the {!Compiled} tier uses.  The compiled
    tier is the executor; the interpreter remains the semantic reference
    the [compile_identity] fuzzing oracle holds it bit-identical to. *)

open Ir.Types
module Label = Taint.Label
module Obs = Observations

exception Budget_exceeded of int

type config = {
  control_flow_taint : bool;
  max_steps : int;
}

let default_config = { control_flow_taint = true; max_steps = 200_000_000 }

(* The per-instruction counters live in {!Icounters}, shared with the
   compiled tier; re-exported here for the documentation drift test. *)
let instr_counters = Icounters.instr_counters

(* -- module types ---------------------------------------------------------- *)

module type POLICY = sig
  val tracks_labels : bool
  val observes_blocks : bool

  type state
  type label
  type fstate

  val create : control_flow_taint:bool -> hint:int -> state
  val table : state -> Taint.Label.table
  val clean : label
  val is_clean : label -> bool
  val frame_slots : state -> int -> fstate
  val read_slot : fstate -> int -> label
  val write_slot : state -> fstate -> int -> label -> unit
  val bind_slot : fstate -> int -> label -> unit

  val join2 : state -> label -> label -> label
  val on_alloc : state -> alloc:int -> size:int -> label -> label

  val on_load :
    state -> alloc:int -> offset:int -> base:label -> index:label -> label

  val on_store :
    state -> fstate -> alloc:int -> offset:int -> base:label -> index:label ->
    data:label -> unit

  val source : state -> param:string -> Ir.Types.value * label ->
    Ir.Types.value * label

  val export : state -> label -> Taint.Label.t
  val import : state -> Taint.Label.t -> label

  val export_args :
    state -> (Ir.Types.value * label) list ->
    (Ir.Types.value * Taint.Label.t) list

  val branch_dep : state -> fstate -> label -> label
  val return_label : state -> fstate -> label -> label
  val wants_scope : state -> label -> bool
  val scope_push : state -> fstate -> join:string -> label -> unit

  val block_enter :
    state -> fstate -> func:string -> block:string -> prev:string option ->
    unit
end

module type HOST = sig
  type t
  type frame

  type prim_fn =
    t -> frame -> (Ir.Types.value * Taint.Label.t) list ->
    Ir.Types.value * Taint.Label.t

  val register_prim : t -> string -> prim_fn -> unit
  val label_table : t -> Taint.Label.table
end

module type S = sig
  type pstate

  include HOST

  val create :
    ?config:config -> ?metrics:Obs_metrics.t -> ?trace:Obs_trace.sink ->
    ?profile:Obs_profile.t -> Ir.Types.program -> t

  val run : t -> Ir.Types.value list -> Ir.Types.value * Taint.Label.t

  val run_named :
    t -> (string * Ir.Types.value) list -> Ir.Types.value * Taint.Label.t

  val observations : t -> Observations.t
  val steps_executed : t -> int
  val policy_state : t -> pstate
end

(* -- the engine ------------------------------------------------------------ *)

module Make (P : POLICY) : S with type pstate = P.state = struct
  type pstate = P.state

  (* Static per-function facts needed during execution: the shared
     block-resolution table and slot numbering plus the function's
     statistics record. *)
  type fstatic = {
    fst : Fstatic.t;
    slot_of : (string, int) Hashtbl.t;
        (** register name -> shadow slot ({!Fstatic.slots}) *)
    sfobs : Obs.func_obs;
        (** the function's statistics record, shared by every frame *)
  }

  type frame = {
    ffunc : func;
    fstat : fstatic;
    fobs : Obs.func_obs;
        (** this function's statistics record, resolved once per call so
            the per-instruction increment is a plain field write *)
    regs : (string, value) Hashtbl.t;
    pframe : P.fstate;  (** policy context: shadow registers, control scopes *)
    mutable active_loops : (string * string) list;
        (** observation keys of loops currently being executed in this
            frame, innermost first *)
    enclosing : (string * string) list;
        (** loop observation keys active in the caller chain at call time *)
    callpath : Obs.callpath;
    cp_key : string;
  }

  type t = {
    program : program;
    config : config;
    pstate : P.state;
    heap : (int, value array) Hashtbl.t;
    mutable next_alloc : int;
    mutable steps : int;
    statics : (string, fstatic) Hashtbl.t;
    ftable : (string, func) Hashtbl.t;
        (** function name -> definition, so calls skip the linear scan
            of the program's function list *)
    cp_keys : (string * string, Obs.callpath * string) Hashtbl.t;
        (** (caller's callpath key, callee) -> callee's callpath and its
            key, memoized because call trees revisit the same paths
            constantly *)
    mutable reg_pool : (string, value) Hashtbl.t list;
        (** register tables of completed frames, cleared and reused so
            each call does not allocate a fresh table *)
    obs : Obs.t;
    prims : (string, prim_fn) Hashtbl.t;
    mutable call_depth : int;
    im : Icounters.t option;   (** instruction metrics, when enabled *)
    trace : Obs_trace.sink;    (** span/instant sink, [disabled] by default *)
    prof : Obs_profile.t option;
        (** deterministic sampling profiler, off by default; driven by the
            executed-step count, never wall time *)
  }

  and prim_fn = t -> frame -> (value * Label.t) list -> value * Label.t

  (* Cached [find_func]; the fallback keeps the original error message
     for unknown functions. *)
  let func_named t fname =
    match Hashtbl.find_opt t.ftable fname with
    | Some f -> f
    | None -> find_func t.program fname

  (* -- static info cache ------------------------------------------------- *)

  let fstatic_of t fname =
    match Hashtbl.find_opt t.statics fname with
    | Some s -> s
    | None ->
      let f = func_named t fname in
      let fst = Fstatic.of_func f in
      let slot_of, _ = Fstatic.slots f fst in
      let s = { fst; slot_of; sfobs = Obs.func_obs t.obs fname } in
      Hashtbl.replace t.statics fname s;
      s

  let block_in frame label = Fstatic.block_in frame.fstat.fst frame.ffunc label

  (* -- operands ----------------------------------------------------------- *)

  let operand_value frame = function
    | Reg r -> (
      try Hashtbl.find frame.regs r
      with Not_found ->
        Eval.error "read of unset register %%%s in %s" r frame.ffunc.fname)
    | Int i -> Eval.vint i
    | Float f -> VFloat f
    | Bool b -> Eval.vbool b
    | Unit -> VUnit

  (* Every register of an executed block has a slot: only the kept
     blocks {!Fstatic.slots} numbers are reachable through labels. *)
  let slot frame r = Hashtbl.find frame.fstat.slot_of r

  let operand_label frame = function
    | Reg r -> P.read_slot frame.pframe (slot frame r)
    | Int _ | Float _ | Bool _ | Unit -> P.clean

  let eval_operand frame op = (operand_value frame op, operand_label frame op)

  (* Write a register together with its shadow; the policy folds control
     context in as appropriate. *)
  let write_reg t frame r v l =
    Hashtbl.replace frame.regs r v;
    P.write_slot t.pstate frame.pframe (slot frame r) l

  (* -- primitives --------------------------------------------------------- *)

  let register_prim t name fn = Hashtbl.replace t.prims name fn

  let emit_event t frame prim args =
    t.obs.Obs.events <-
      { Obs.ev_func = frame.ffunc.fname;
        ev_callpath = frame.callpath;
        ev_prim = prim;
        ev_args = args }
      :: t.obs.Obs.events

  (* [taint:<name>] is a pass-through taint source: the Taint policy
     unions the base label <name> in (PIR's register_variable); the other
     policies pass the value through untouched. *)
  let dispatch_prim t frame name argv xargs =
    match Label.source_prim name with
    | Some param -> (
      match argv with
      | [ vl ] -> P.source t.pstate ~param vl
      | _ -> Eval.error "taint:%s expects one argument" param)
    | None -> (
      match Hashtbl.find_opt t.prims name with
      | Some fn ->
        let v, l = fn t frame xargs in
        (v, P.import t.pstate l)
      | None -> Eval.error "unknown primitive !%s" name)

  let builtin_work frame = function
    | [ (VInt n, _) ] ->
      let fo = frame.fobs in
      fo.Obs.fo_work <- fo.Obs.fo_work + n;
      (VUnit, P.clean)
    | _ -> Eval.error "work expects one int argument"

  let builtin_print t xargs =
    List.iter
      (fun (v, l) ->
        Fmt.epr "[pir] %a %a@." Ir.Pp.pp_value v
          (Label.pp (P.table t.pstate)) l)
      xargs;
    (VUnit, P.clean)

  (* -- allocation --------------------------------------------------------- *)

  let alloc_array t size =
    let h = t.next_alloc in
    t.next_alloc <- t.next_alloc + 1;
    Hashtbl.replace t.heap h (Array.make (max size 0) (VInt 0));
    (match t.im with
    | None -> ()
    | Some ic -> Obs_metrics.add ic.Icounters.ic_heap_cells (max size 0));
    h

  let heap_get t h i =
    match Hashtbl.find_opt t.heap h with
    | Some a when i >= 0 && i < Array.length a -> a.(i)
    | Some a -> Eval.error "index %d out of bounds (size %d)" i (Array.length a)
    | None -> Eval.error "dangling array handle %d" h

  let heap_set t h i v =
    match Hashtbl.find_opt t.heap h with
    | Some a when i >= 0 && i < Array.length a -> a.(i) <- v
    | Some a -> Eval.error "index %d out of bounds (size %d)" i (Array.length a)
    | None -> Eval.error "dangling array handle %d" h

  (* -- execution ---------------------------------------------------------- *)

  let step t =
    t.steps <- t.steps + 1;
    (match t.prof with None -> () | Some p -> Obs_profile.tick p);
    if t.steps > t.config.max_steps then
      raise (Budget_exceeded t.config.max_steps)

  let rec exec_instr t frame instr =
    step t;
    let fo = frame.fobs in
    fo.Obs.fo_instrs <- fo.Obs.fo_instrs + 1;
    (match t.im with None -> () | Some ic -> Icounters.count_instr ic instr);
    match instr with
    | Assign (d, a) ->
      let v = operand_value frame a and l = operand_label frame a in
      write_reg t frame d v l
    | Binop (d, op, a, b) ->
      let va = operand_value frame a and la = operand_label frame a in
      let vb = operand_value frame b and lb = operand_label frame b in
      write_reg t frame d (Eval.binop op va vb) (P.join2 t.pstate la lb)
    | Unop (d, op, a) ->
      let v = operand_value frame a and l = operand_label frame a in
      write_reg t frame d (Eval.unop op v) l
    | Alloc (d, n) ->
      let v = operand_value frame n and l = operand_label frame n in
      let size = Eval.alloc_size v in
      let h = alloc_array t size in
      (* The allocation size's shadow flows to the handle: indexing
         computations derived from the handle itself stay clean, but the
         summary label of the array keeps the size dependency visible. *)
      write_reg t frame d (VArr h) (P.on_alloc t.pstate ~alloc:h ~size l)
    | Load (d, base, idx) ->
      let vb = operand_value frame base and lb = operand_label frame base in
      let vi = operand_value frame idx and li = operand_label frame idx in
      let h = Eval.as_arr vb and i = Eval.as_int vi in
      let v = heap_get t h i in
      write_reg t frame d v
        (P.on_load t.pstate ~alloc:h ~offset:i ~base:lb ~index:li)
    | Store (base, idx, x) ->
      let vb = operand_value frame base and lb = operand_label frame base in
      let vi = operand_value frame idx and li = operand_label frame idx in
      let vx = operand_value frame x and lx = operand_label frame x in
      let h = Eval.as_arr vb and i = Eval.as_int vi in
      heap_set t h i vx;
      P.on_store t.pstate frame.pframe ~alloc:h ~offset:i ~base:lb ~index:li
        ~data:lx
    | Call (d, fname, args) ->
      let argv = List.map (eval_operand frame) args in
      let enclosing = frame.active_loops @ frame.enclosing in
      let v, l =
        call ~enclosing ~parent_key:frame.cp_key t frame.callpath fname argv
      in
      (match d with Some d -> write_reg t frame d v l | None -> ())
    | Prim (d, p, args) ->
      let argv = List.map (eval_operand frame) args in
      let v, l =
        (* [work] is pure cost accounting: charged to [fo_work] and kept
           out of the event log (symmetric with the compiled tier). *)
        if p = "work" then builtin_work frame argv
        else begin
          let xargs = P.export_args t.pstate argv in
          emit_event t frame p xargs;
          if p = "print" then builtin_print t xargs
          else dispatch_prim t frame p argv xargs
        end
      in
      (match d with Some d -> write_reg t frame d v l | None -> ())

  and call ?(enclosing = []) ?parent_key t callpath fname argv =
    t.call_depth <- t.call_depth + 1;
    if t.call_depth > Eval.max_call_depth then Eval.call_depth_exceeded ();
    let f = func_named t fname in
    if List.length f.fparams <> List.length argv then
      Eval.error "arity mismatch calling %s: %d formals, %d actuals" fname
        (List.length f.fparams) (List.length argv);
    let fstat = fstatic_of t fname in
    let callpath, cp_key =
      match parent_key with
      | None ->
        let cp = callpath @ [ fname ] in
        (cp, Obs.callpath_key cp)
      | Some pk -> (
        let mk = (pk, fname) in
        match Hashtbl.find_opt t.cp_keys mk with
        | Some cached -> cached
        | None ->
          let cp = callpath @ [ fname ] in
          let cached = (cp, Obs.callpath_key cp) in
          Hashtbl.add t.cp_keys mk cached;
          cached)
    in
    let regs =
      match t.reg_pool with
      | h :: rest ->
        t.reg_pool <- rest;
        h
      | [] -> Hashtbl.create 16
    in
    let frame =
      {
        ffunc = f;
        fstat;
        fobs = fstat.sfobs;
        regs;
        pframe = P.frame_slots t.pstate (Hashtbl.length fstat.slot_of);
        active_loops = [];
        enclosing;
        callpath;
        cp_key;
      }
    in
    List.iter2
      (fun p (v, l) ->
        Hashtbl.replace frame.regs p v;
        P.bind_slot frame.pframe (slot frame p) l)
      f.fparams argv;
    let fo = frame.fobs in
    fo.Obs.fo_calls <- fo.Obs.fo_calls + 1;
    (match t.im with
    | None -> ()
    | Some ic -> Obs_metrics.incr ic.Icounters.ic_calls);
    let entry =
      match fstat.fst.Fstatic.bentry with
      | Some b -> b
      | None ->
        {
          Fstatic.blk = entry_block f;
          bloop = None;
          bexits = [];
          bheaders = [];
          bjoin = Fstatic.never_join;
        }
    in
    let body () =
      if Obs_trace.enabled t.trace then begin
        Obs_trace.span_begin t.trace ~cat:"interp" fname;
        Fun.protect
          ~finally:(fun () -> Obs_trace.span_end t.trace fname)
          (fun () -> exec_from t frame entry ~prev:None)
      end
      else exec_from t frame entry ~prev:None
    in
    let result =
      match t.prof with
      | None -> body ()
      | Some p ->
        Obs_profile.enter p fname;
        Fun.protect ~finally:(fun () -> Obs_profile.leave p) body
    in
    t.call_depth <- t.call_depth - 1;
    (* Recycle the register table (dropped on the exception path, where
       the pool is best-effort anyway). *)
    Hashtbl.clear frame.regs;
    t.reg_pool <- frame.regs :: t.reg_pool;
    result

  (* Record loop entry / iteration when arriving at [bi.blk] from [prev]. *)
  and note_loop_arrival t frame (bi : Fstatic.binfo) ~prev =
    match bi.bloop with
    | None -> ()
    | Some loop ->
      let block = bi.blk in
      let from_inside =
        match prev with
        | Some p -> Ir.Cfg.SSet.mem p loop.Ir.Loops.body
        | None -> false
      in
      let lo =
        Dynobs.loop_obs t.obs ~cp_key:frame.cp_key ~func:frame.ffunc.fname
          ~header:block.label ~callpath:frame.callpath
          ~depth:loop.Ir.Loops.depth ~parent:loop.Ir.Loops.parent
      in
      Dynobs.record_arrival lo ~from_inside;
      (match t.im with
      | None -> ()
      | Some ic ->
        if from_inside then Obs_metrics.incr ic.Icounters.ic_loop_iters
        else Obs_metrics.incr ic.Icounters.ic_loop_entries);
      if (not from_inside) && Obs_trace.enabled t.trace then
        Obs_trace.instant t.trace ~cat:"loop"
          (frame.ffunc.fname ^ "/" ^ block.label);
      Dynobs.merge_enclosing lo
        ~self:(frame.cp_key, block.label)
        ~active:frame.active_loops ~enclosing:frame.enclosing

  and exec_from t frame (bi : Fstatic.binfo) ~prev =
    let block = bi.blk in
    (* Policy block hook: pop control scopes ending here (Taint), count
       blocks and edges (Coverage). *)
    P.block_enter t.pstate frame.pframe ~func:frame.ffunc.fname
      ~block:block.label ~prev;
    (* Maintain the dynamic loop stack: drop loops whose body we left. *)
    (match frame.active_loops with
    | [] -> ()
    | _ :: _ ->
      frame.active_loops <-
        List.filter
          (fun (_, header) -> List.exists (String.equal header) bi.bheaders)
          frame.active_loops);
    note_loop_arrival t frame bi ~prev;
    (match bi.bloop with
    | Some _ ->
      let self = (frame.cp_key, block.label) in
      if not (List.mem self frame.active_loops) then
        frame.active_loops <- self :: frame.active_loops
    | None -> ());
    List.iter (exec_instr t frame) block.instrs;
    step t;
    (match t.im with
    | None -> ()
    | Some ic -> Obs_metrics.incr ic.Icounters.ic_ctl);
    match block.term with
    | Return op ->
      let v = operand_value frame op and l = operand_label frame op in
      (v, P.return_label t.pstate frame.pframe l)
    | Jump l ->
      exec_from t frame (block_in frame l) ~prev:(Some block.label)
    | Branch (c, then_l, else_l) ->
      let v = operand_value frame c and l = operand_label frame c in
      let dep = P.branch_dep t.pstate frame.pframe l in
      let taken = Eval.as_bool v in
      (match t.im with
      | None -> ()
      | Some ic ->
        Obs_metrics.incr ic.Icounters.ic_branches;
        if not (P.is_clean dep) then
          Obs_metrics.incr ic.Icounters.ic_tainted_branches);
      let odep = P.export t.pstate dep in
      let bo =
        Dynobs.branch_obs t.obs ~cp_key:frame.cp_key ~func:frame.ffunc.fname
          ~block:block.label ~callpath:frame.callpath
      in
      Dynobs.record_branch bo ~dep:odep ~taken;
      Dynobs.loop_sink t.obs ~cp_key:frame.cp_key bi.bexits odep;
      (if P.wants_scope t.pstate l then
         P.scope_push t.pstate frame.pframe ~join:bi.Fstatic.bjoin l);
      let target = if taken then then_l else else_l in
      exec_from t frame (block_in frame target) ~prev:(Some block.label)

  (* -- entry points -------------------------------------------------------- *)

  let create ?(config = default_config) ?metrics ?(trace = Obs_trace.disabled)
      ?profile program =
    (* Static instruction count: the capacity hint policies use to
       presize label/shadow tables (see POLICY.create). *)
    let hint =
      List.fold_left
        (fun acc (f : func) ->
          List.fold_left
            (fun a (b : Ir.Types.block) -> a + List.length b.instrs)
            acc f.blocks)
        0 program.funcs
    in
    {
      program;
      config;
      pstate = P.create ~control_flow_taint:config.control_flow_taint ~hint;
      heap = Hashtbl.create 64;
      next_alloc = 0;
      steps = 0;
      statics = Hashtbl.create 16;
      ftable =
        (* First-wins on duplicate names, matching [find_func]'s scan. *)
        (let tbl = Hashtbl.create 16 in
         List.iter
           (fun (f : func) ->
             if not (Hashtbl.mem tbl f.fname) then Hashtbl.add tbl f.fname f)
           program.funcs;
         tbl);
      cp_keys = Hashtbl.create 64;
      reg_pool = [];
      obs = Obs.create ();
      prims = Hashtbl.create 16;
      call_depth = 0;
      im = Option.map Icounters.of_metrics metrics;
      trace;
      prof = profile;
    }

  (** Run the program's entry function with the given positional arguments
      (matched against the entry function's parameters).  Returns the
      result value and its exported shadow label. *)
  let run t args =
    let entry = find_func t.program t.program.entry in
    if List.length entry.fparams <> List.length args then
      Eval.error "entry %s expects %d arguments, got %d" entry.fname
        (List.length entry.fparams) (List.length args);
    let v, l =
      call t [] t.program.entry (List.map (fun v -> (v, P.clean)) args)
    in
    (v, P.export t.pstate l)

  (** Convenience: run with named integer parameters, in the order declared
      by the entry function. *)
  let run_named t bindings =
    let entry = find_func t.program t.program.entry in
    let args =
      List.map
        (fun p ->
          match List.assoc_opt p bindings with
          | Some v -> v
          | None -> Eval.error "missing binding for entry parameter %s" p)
        entry.fparams
    in
    run t args

  let observations t = t.obs
  let label_table t = P.table t.pstate
  let steps_executed t = t.steps
  let policy_state t = t.pstate
end
