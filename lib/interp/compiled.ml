(** The compiled execution tier: the {!Engine} semantics over the
    slot-resolved lowered form produced by {!Lower}.

    Same policy split, same observations, same traps and budget
    accounting as {!Engine.Make} — but the dispatch loop does zero name
    lookups: registers are array slots, block transfers are array
    indices, callees are function indices, and primitives are
    pre-classified.  Functions are lowered lazily at first call, exactly
    when the interpreter would build its static facts, so programs with
    malformed never-executed functions behave identically.

    The two tiers must stay bit-identical — result values, taint labels,
    taint-source registration order, loop/branch/event/function
    observations, metric counters, profiler samples, trap messages and
    budget behavior.  Every policy hook and observation call below is
    placed in the same sequence as the interpreter's; the
    [compile_identity] fuzzing oracle enforces the contract on generated
    programs. *)

open Ir.Types
open Lower
module Label = Taint.Label
module Obs = Observations

(* Physically unique sentinel arming every memo slot below — never
   [==] to a runtime loop-context list (including [[]]). *)
let merge_pending = [ ("", "") ]

(* Lowering is a pure function of the program: slot numbers, block
   indices and callee indices are all deterministic (first-wins function
   table, program-order blocks), so lowered code is shared across engine
   instances of the same program — one compilation serves a whole
   campaign of replays.  The cache is domain-local (no synchronization
   under --jobs; each worker lowers at most once) and keeps only the
   last few programs, keyed by physical identity, so fuzzing over
   thousands of generated programs does not accumulate. *)
let lower_cache_capacity = 4

let lower_cache :
    (program * (string, Lower.lfunc) Hashtbl.t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* Hit/miss accounting for the lowering cache.  Deliberately plain
   domain-local refs, not engine-registry counters: the compile-identity
   oracle compares engine-attached registries bit-for-bit between the
   tiers, and only this tier lowers.  The pipeline reads the delta
   around a run and publishes it as compile.cache_hit/cache_miss. *)
let cache_hits : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let cache_misses : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let cache_stats () =
  (!(Domain.DLS.get cache_hits), !(Domain.DLS.get cache_misses))

let cache_counters =
  [
    ( "compile.cache_hit",
      "lowered functions reused from the domain-local cache" );
    ( "compile.cache_miss",
      "functions lowered afresh into the domain-local cache" );
  ]

let lowered_table (program : program) =
  let cache = Domain.DLS.get lower_cache in
  match !cache with
  | (p, tbl) :: _ when p == program -> tbl
  | entries -> (
    match List.find_opt (fun (p, _) -> p == program) entries with
    | Some (_, tbl) ->
      (* Move-to-front keeps the working set resident. *)
      cache :=
        (program, tbl) :: List.filter (fun (p, _) -> p != program) entries;
      tbl
    | None ->
      let tbl = Hashtbl.create 16 in
      cache :=
        (program, tbl) :: List.filteri (fun i _ -> i < lower_cache_capacity - 1) entries;
      tbl)

let count_linstr ic li =
  let open Icounters in
  match li with
  | LAssign _ | LBinop _ | LUnop _ -> Obs_metrics.incr ic.ic_alu
  | LAlloc _ ->
    Obs_metrics.incr ic.ic_mem;
    Obs_metrics.incr ic.ic_allocs
  | LLoad _ ->
    Obs_metrics.incr ic.ic_mem;
    Obs_metrics.incr ic.ic_loads
  | LStore _ ->
    Obs_metrics.incr ic.ic_mem;
    Obs_metrics.incr ic.ic_stores
  | LCall _ -> Obs_metrics.incr ic.ic_call
  | LPrim _ -> Obs_metrics.incr ic.ic_prim

module Make (P : Engine.POLICY) : Engine.S with type pstate = P.state = struct
  (* Static policy capabilities, read once at functor application: when
     the policy carries no slot labels, every label it would produce is
     [P.clean] by contract, so the shadow plumbing below is skipped
     outright (the interpreter always calls the hooks, and the
     differential oracle cross-checks the promise). *)
  let labels = P.tracks_labels

  let blocks_observed = P.observes_blocks

  type pstate = P.state

  (* A compiled function together with its statistics record, built at
     first call (the compiled analogue of the interpreter's static-info
     cache). *)
  type cfunc = { code : Lower.lfunc; sfobs : Obs.func_obs }

  (* Everything fixed per callpath, resolved at its first call and kept
     for the engine's lifetime in [cp_keys].  A callpath is live at most
     once at a time (a recursive call gets a longer callpath), so one set
     of per-block slots serves every call through it.  The loop and
     branch records live in string-keyed tables on [Obs.t] (shared with
     the interpreter), but within one callpath the (cp_key, label) keys
     are fixed per block, so each record is found once and thereafter
     reached by block index.  [sites] similarly caches the callee's
     callpath per [LCall] site, turning the per-call string-pair hash
     probe into an array read. *)
  type ocache = {
    path : Obs.callpath;
    key : string;  (** [Obs.callpath_key path] *)
    locs : Obs.loop_obs option array;
    bocs : Obs.branch_obs option array;
    sinks : Obs.loop_obs option array array;
        (** per block, one slot per [bexits] loop: the exit sink's
            record, once found (a miss is looked up again next time, as
            the interpreter does) *)
    sites : ocache option array;
    selfs : (string * string) array;
        (** per loop-header block: the interned [(cp_key, header)] pair
            used as the active-loops entry.  Every arrival at a given
            header within one callpath pushes the same physical pair, so
            the membership test is [List.memq] instead of a structural
            compare over long callpath keys (and the pair is allocated
            once, not per arrival).  Non-header blocks hold a dummy. *)
    keeps : (string * string) list array;
        (** per block: the interned selfs of the loop headers enclosing
            it ([Fstatic.bheaders] resolved first-wins by label — the
            same resolution branch targets use, so only first-wins
            blocks ever execute and push entries).  Active-loops pruning
            is then a [memq] test against this list instead of a string
            comparison per (entry, header) pair. *)
    lmerged : (string * string) list array;
    lmerged_enc : (string * string) list array;
        (** per loop header, slot [2 * block] for entries and [+ 1] for
            iterations (they arrive with different active lists): the
            [(active_loops, enclosing)] pair, by physical identity, last
            merged into the block's loop record.  Re-merging it is a
            no-op, so it is skipped. *)
    push_key : (string * string) list array;
    push_val : (string * string) list array;
        (** per loop header: the [self :: active_loops] cons, memoized by
            the physical identity of [active_loops] ([push_key]), so
            every arrival from the same context installs the physically
            same list and the other memos hit *)
    mutable enc_active : (string * string) list;
    mutable enc_base : (string * string) list;
    mutable enc_list : (string * string) list;
        (** [active_loops @ enclosing], the context handed to callees,
            memoized by the physical identity of both lists: loops push
            and prune [active_loops] by whole-list replacement, so equal
            identities mean an unchanged append *)
  }

  (* Built fresh per call: a young frame keeps every register write on
     the write barrier's fast path, and all that outlives a call sits in
     its callpath's [ocache]. *)
  type frame = {
    code : Lower.lfunc;
    fname : string;
    fobs : Obs.func_obs;
    regs : value array;   (** slot-indexed values; unset = {!Lower.vunset} *)
    pframe : P.fstate;    (** policy context, slot-addressed *)
    mutable active_loops : (string * string) list;
    enclosing : (string * string) list;
    ocache : ocache;
  }

  type t = {
    program : program;
    config : Engine.config;
    max_steps : int;  (** [config.max_steps], lifted out for the hot path *)
    pstate : P.state;
    mutable harr : value array array;
        (** dense heap: handle = index; handles are never freed, so every
            index below [next_alloc] is live *)
    mutable next_alloc : int;
    mutable steps : int;
    mutable argv_buf : value array;
    mutable argl_buf : P.label array;
        (** scratch for call-argument evaluation: arguments are consumed
            into the callee frame before any nested call re-uses the
            buffers, so one pair per engine suffices — no per-call list *)
    funcs : func array;
        (** the program's functions in order, duplicate names dropped
            (first wins, as in [find_func]) *)
    findex : (string, int) Hashtbl.t;  (** function name -> index *)
    compiled : cfunc option array;     (** lazily filled, same order *)
    cp_keys : (string * string, ocache) Hashtbl.t;
        (** (caller's callpath key, callee) -> the callee's callpath *)
    obs : Obs.t;
    prims : (string, prim_fn) Hashtbl.t;
    mutable call_depth : int;
    mutable ret_label : P.label;
        (** the label of the value the last finished call returned,
            read by its caller right after the call: one field instead
            of a [(value, label)] pair per return *)
    im : Icounters.t option;
    trace : Obs_trace.sink;
    prof : Obs_profile.t option;
  }

  and prim_fn = t -> frame -> (value * Label.t) list -> value * Label.t

  (* -- compilation cache --------------------------------------------------- *)

  let resolve t name =
    match Hashtbl.find_opt t.findex name with
    | Some i -> Some (i, t.funcs.(i))
    | None -> None

  let compiled_of t idx =
    match t.compiled.(idx) with
    | Some cf -> cf
    | None ->
      let f = t.funcs.(idx) in
      let tbl = lowered_table t.program in
      let code =
        match Hashtbl.find_opt tbl f.fname with
        | Some code ->
          incr (Domain.DLS.get cache_hits);
          code
        | None ->
          incr (Domain.DLS.get cache_misses);
          let code = Lower.func ~resolve:(resolve t) f (Fstatic.of_func f) in
          Hashtbl.add tbl f.fname code;
          code
      in
      let cf = { code; sfobs = Obs.func_obs t.obs f.fname } in
      t.compiled.(idx) <- Some cf;
      cf

  let no_self = ("", "")

  let fresh_ocache path (code : Lower.lfunc) =
    let cp_key = Obs.callpath_key path in
    let n = Array.length code.lblocks in
    let selfs =
      Array.map
        (fun (lb : Lower.lblock) ->
          match lb.lbi.Fstatic.bloop with
          | Some _ -> (cp_key, lb.lbi.Fstatic.blk.label)
          | None -> no_self)
        code.lblocks
    in
    let self_of = Hashtbl.create 8 in
    Array.iteri
      (fun i (lb : Lower.lblock) ->
        let lbl = lb.lbi.Fstatic.blk.label in
        if selfs.(i) != no_self && not (Hashtbl.mem self_of lbl) then
          Hashtbl.add self_of lbl selfs.(i))
      code.lblocks;
    let keeps =
      Array.map
        (fun (lb : Lower.lblock) ->
          List.filter_map (Hashtbl.find_opt self_of) lb.lbi.Fstatic.bheaders)
        code.lblocks
    in
    {
      path;
      key = cp_key;
      locs = Array.make n None;
      bocs = Array.make n None;
      sinks =
        Array.map
          (fun (lb : Lower.lblock) ->
            Array.make (List.length lb.lbi.Fstatic.bexits) None)
          code.lblocks;
      sites = Array.make (max 1 code.lnsites) None;
      selfs;
      keeps;
      lmerged = Array.make (2 * n) merge_pending;
      lmerged_enc = Array.make (2 * n) merge_pending;
      push_key = Array.make n merge_pending;
      push_val = Array.make n merge_pending;
      enc_active = merge_pending;
      enc_base = merge_pending;
      enc_list = [];
    }

  (* -- operands ------------------------------------------------------------ *)

  (* Slot indices are in-bounds by construction (the lowering allocates
     them densely below [lnslots], the frame array's size), so the reads
     and writes are unchecked. *)
  let[@inline] lop_value frame = function
    | LConst v -> v
    | LSlot i ->
      let v = Array.unsafe_get frame.regs i in
      if v == vunset then
        Eval.error "read of unset register %%%s in %s" frame.code.lsnames.(i)
          frame.fname
      else v

  let[@inline] lop_label frame = function
    | LConst _ -> P.clean
    | LSlot i -> if labels then P.read_slot frame.pframe i else P.clean

  (* Matches the interpreter's argument-list evaluation order (head
     first); builds the (value, label) list host primitives and
     [export_args] consume. *)
  let rec eval_args frame (args : lop array) i =
    if i >= Array.length args then []
    else
      let v = lop_value frame args.(i) in
      let l = lop_label frame args.(i) in
      (v, l) :: eval_args frame args (i + 1)

  let[@inline] set_slot t frame d v l =
    Array.unsafe_set frame.regs d v;
    if labels then P.write_slot t.pstate frame.pframe d l

  (* -- primitives ---------------------------------------------------------- *)

  let register_prim t name fn = Hashtbl.replace t.prims name fn

  let emit_event t frame prim args =
    t.obs.Obs.events <-
      { Obs.ev_func = frame.fname;
        ev_callpath = frame.ocache.path;
        ev_prim = prim;
        ev_args = args }
      :: t.obs.Obs.events

  let builtin_print t xargs =
    List.iter
      (fun (v, l) ->
        Fmt.epr "[pir] %a %a@." Ir.Pp.pp_value v
          (Label.pp (P.table t.pstate)) l)
      xargs;
    (VUnit, P.clean)

  (* -- allocation ---------------------------------------------------------- *)

  let alloc_array t size =
    let h = t.next_alloc in
    if h >= Array.length t.harr then begin
      let bigger = Array.make ((2 * Array.length t.harr) + 1) [||] in
      Array.blit t.harr 0 bigger 0 (Array.length t.harr);
      t.harr <- bigger
    end;
    t.harr.(h) <- Array.make (max size 0) (VInt 0);
    t.next_alloc <- h + 1;
    (match t.im with
    | None -> ()
    | Some ic -> Obs_metrics.add ic.Icounters.ic_heap_cells (max size 0));
    h

  (* Handles are array indices and never freed, so validity is a bounds
     check; the trap messages match the interpreter's hashed heap. *)
  let heap_arr t h =
    if h >= 0 && h < t.next_alloc then Array.unsafe_get t.harr h
    else Eval.error "dangling array handle %d" h

  let heap_get t h i =
    let a = heap_arr t h in
    if i >= 0 && i < Array.length a then Array.unsafe_get a i
    else Eval.error "index %d out of bounds (size %d)" i (Array.length a)

  let heap_set t h i v =
    let a = heap_arr t h in
    if i >= 0 && i < Array.length a then a.(i) <- v
    else Eval.error "index %d out of bounds (size %d)" i (Array.length a)

  (* -- execution ----------------------------------------------------------- *)

  let[@inline] step t =
    t.steps <- t.steps + 1;
    (match t.prof with None -> () | Some p -> Obs_profile.tick p);
    if t.steps > t.max_steps then raise (Engine.Budget_exceeded t.max_steps)

  let grow_args t n =
    let cap = max n (2 * Array.length t.argv_buf) in
    t.argv_buf <- Array.make cap vunset;
    t.argl_buf <- Array.make cap P.clean

  (* [loops] minus the entries not in [allowed], by physical identity:
     the interpreter's [List.filter] on entering a block.  Returns
     [loops] itself when every entry stays (the steady state of a loop
     body), so that case allocates nothing. *)
  let rec prune allowed loops =
    match loops with
    | [] -> loops
    | e :: rest ->
      let kept = prune allowed rest in
      if not (List.memq e allowed) then kept
      else if kept == rest then loops
      else e :: kept

  (* {!Dynobs.loop_sink} over one block's [bexits], each loop's record
     kept in the callpath's [slots] once found. *)
  let rec sink_exits t oc slots k (exits : Ir.Loops.loop list) dep =
    match exits with
    | [] -> ()
    | l :: rest ->
      (match Array.unsafe_get slots k with
      | Some lo -> Dynobs.sink lo dep
      | None -> (
        match Dynobs.find_loop t.obs ~cp_key:oc.key l.Ir.Loops.header with
        | Some lo ->
          slots.(k) <- Some lo;
          Dynobs.sink lo dep
        | None -> ()));
      sink_exits t oc slots (k + 1) rest dep

  (* Build a callee frame: slots unset, parameters not yet bound (each
     call shape binds from its own argument source). *)
  let callee_frame t ~enclosing (cf : cfunc) fname ocache =
    let nslots = cf.code.lnslots in
    {
      code = cf.code;
      fname;
      fobs = cf.sfobs;
      regs = Array.make nslots vunset;
      pframe = P.frame_slots t.pstate nslots;
      active_loops = [];
      enclosing;
      ocache;
    }

  let rec exec_linstr t frame li =
    step t;
    let fo = frame.fobs in
    fo.Obs.fo_instrs <- fo.Obs.fo_instrs + 1;
    (match t.im with None -> () | Some ic -> count_linstr ic li);
    match li with
    | LAssign (d, a) ->
      let v = lop_value frame a and l = lop_label frame a in
      set_slot t frame d v l
    | LBinop (d, op, a, b) ->
      let va = lop_value frame a and la = lop_label frame a in
      let vb = lop_value frame b and lb = lop_label frame b in
      (* The interpreter's argument order evaluates the label join
         before the operation (which may trap); keep that order so label
         tables agree even on crashing runs. *)
      let l = if labels then P.join2 t.pstate la lb else P.clean in
      let v = Eval.binop op va vb in
      set_slot t frame d v l
    | LUnop (d, op, a) ->
      let v = lop_value frame a and l = lop_label frame a in
      let v = Eval.unop op v in
      set_slot t frame d v l
    | LAlloc (d, n) ->
      let v = lop_value frame n and l = lop_label frame n in
      let size = Eval.alloc_size v in
      let h = alloc_array t size in
      let l = if labels then P.on_alloc t.pstate ~alloc:h ~size l else P.clean in
      set_slot t frame d (VArr h) l
    | LLoad (d, base, idx) ->
      let vb = lop_value frame base and lb = lop_label frame base in
      let vi = lop_value frame idx and li = lop_label frame idx in
      let h = Eval.as_arr vb and i = Eval.as_int vi in
      let v = heap_get t h i in
      let l =
        if labels then P.on_load t.pstate ~alloc:h ~offset:i ~base:lb ~index:li
        else P.clean
      in
      set_slot t frame d v l
    | LStore (base, idx, x) ->
      let vb = lop_value frame base and lb = lop_label frame base in
      let vi = lop_value frame idx and li = lop_label frame idx in
      let vx = lop_value frame x and lx = lop_label frame x in
      let h = Eval.as_arr vb and i = Eval.as_int vi in
      heap_set t h i vx;
      if labels then
        P.on_store t.pstate frame.pframe ~alloc:h ~offset:i ~base:lb ~index:li
          ~data:lx
    | LCall (d, callee, args, site) ->
      let n = Array.length args in
      if n > Array.length t.argv_buf then grow_args t n;
      let av = t.argv_buf and al = t.argl_buf in
      for i = 0 to n - 1 do
        av.(i) <- lop_value frame args.(i);
        al.(i) <- lop_label frame args.(i)
      done;
      let v = call_site t frame callee site n in
      let l = t.ret_label in
      if d >= 0 then set_slot t frame d v l
    | LPrim (d, PWork, _, args) ->
      (* [work] is pure cost accounting: charged to [fo_work] and kept
         out of the event log (symmetric with the interpreter). *)
      let v, l =
        if Array.length args = 1 then (
          match lop_value frame args.(0) with
          | VInt n ->
            let fo = frame.fobs in
            fo.Obs.fo_work <- fo.Obs.fo_work + n;
            (VUnit, P.clean)
          | _ -> Eval.error "work expects one int argument")
        else begin
          (* Arguments still evaluate (and may trap) before the arity
             error, as in the interpreter. *)
          ignore (eval_args frame args 0);
          Eval.error "work expects one int argument"
        end
      in
      if d >= 0 then set_slot t frame d v l
    | LPrim (d, kind, name, args) ->
      let argv = eval_args frame args 0 in
      let xargs = P.export_args t.pstate argv in
      emit_event t frame name xargs;
      let v, l =
        match kind with
        | PWork -> assert false (* handled above *)
        | PPrint -> builtin_print t xargs
        | PSource param -> (
          match argv with
          | [ vl ] -> P.source t.pstate ~param vl
          | _ -> Eval.error "taint:%s expects one argument" param)
        | PDyn -> (
          match Hashtbl.find_opt t.prims name with
          | Some fn ->
            let v, l = fn t frame xargs in
            (v, P.import t.pstate l)
          | None -> Eval.error "unknown primitive !%s" name)
      in
      if d >= 0 then set_slot t frame d v l

  (* Count the call and run the bound frame's entry block, with the same
     trace/profile wrapping and trap placement as the interpreter. *)
  and run_frame t frame (cf : cfunc) =
    let fo = frame.fobs in
    fo.Obs.fo_calls <- fo.Obs.fo_calls + 1;
    (match t.im with
    | None -> ()
    | Some ic -> Obs_metrics.incr ic.Icounters.ic_calls);
    (* Empty functions trap exactly where the interpreter resolves the
       entry block: after the call was counted, before the trace span. *)
    if Array.length cf.code.lblocks = 0 then ignore (entry_block cf.code.lf);
    let result =
      match t.prof with
      | None ->
        (* No closure in the common (unprofiled, untraced) path. *)
        if Obs_trace.enabled t.trace then begin
          Obs_trace.span_begin t.trace ~cat:"interp" frame.fname;
          Fun.protect
            ~finally:(fun () -> Obs_trace.span_end t.trace frame.fname)
            (fun () -> exec_block t frame 0 ~prev:None ~from_inside:false)
        end
        else exec_block t frame 0 ~prev:None ~from_inside:false
      | Some p ->
        let body () =
          if Obs_trace.enabled t.trace then begin
            Obs_trace.span_begin t.trace ~cat:"interp" frame.fname;
            Fun.protect
              ~finally:(fun () -> Obs_trace.span_end t.trace frame.fname)
              (fun () -> exec_block t frame 0 ~prev:None ~from_inside:false)
          end
          else exec_block t frame 0 ~prev:None ~from_inside:false
        in
        Obs_profile.enter p frame.fname;
        Fun.protect ~finally:(fun () -> Obs_profile.leave p) body
    in
    t.call_depth <- t.call_depth - 1;
    result

  (* The entry-point call shape: list arguments, fresh observation
     cache (the root callpath is never shared). *)
  and call t callee argv =
    t.call_depth <- t.call_depth + 1;
    if t.call_depth > Eval.max_call_depth then Eval.call_depth_exceeded ();
    let idx = match callee with CIdx i -> i | CTrap e -> raise e in
    let cf = compiled_of t idx in
    let fname = t.funcs.(idx).fname in
    let frame =
      callee_frame t ~enclosing:[] cf fname (fresh_ocache [ fname ] cf.code)
    in
    (* Parameters occupy slots 0 .. n-1 by construction. *)
    List.iteri
      (fun i (v, l) ->
        frame.regs.(i) <- v;
        P.bind_slot frame.pframe i l)
      argv;
    run_frame t frame cf

  (* The in-program call shape: [nargs] arguments staged in the scratch
     buffers, callpath data cached per [LCall] site.  Unknown-callee and
     arity traps fire here, where the interpreter performs its lookup
     and check — after the depth guard. *)
  and call_site t frame callee site nargs =
    t.call_depth <- t.call_depth + 1;
    if t.call_depth > Eval.max_call_depth then Eval.call_depth_exceeded ();
    let idx = match callee with CIdx i -> i | CTrap e -> raise e in
    let cf = compiled_of t idx in
    let fname = t.funcs.(idx).fname in
    let ocache =
      match frame.ocache.sites.(site) with
      | Some oc -> oc
      | None ->
        let mk = (frame.ocache.key, fname) in
        let oc =
          match Hashtbl.find_opt t.cp_keys mk with
          | Some oc -> oc
          | None ->
            let oc = fresh_ocache (frame.ocache.path @ [ fname ]) cf.code in
            Hashtbl.add t.cp_keys mk oc;
            oc
        in
        frame.ocache.sites.(site) <- Some oc;
        oc
    in
    let enclosing =
      match frame.active_loops with
      | [] -> frame.enclosing
      | al ->
        let oc = frame.ocache in
        if al == oc.enc_active && frame.enclosing == oc.enc_base then
          oc.enc_list
        else begin
          let e = al @ frame.enclosing in
          oc.enc_active <- al;
          oc.enc_base <- frame.enclosing;
          oc.enc_list <- e;
          e
        end
    in
    let callee = callee_frame t ~enclosing cf fname ocache in
    let av = t.argv_buf in
    if labels then begin
      let al = t.argl_buf in
      for i = 0 to nargs - 1 do
        callee.regs.(i) <- av.(i);
        P.bind_slot callee.pframe i al.(i)
      done
    end
    else for i = 0 to nargs - 1 do callee.regs.(i) <- av.(i) done;
    run_frame t callee cf

  and exec_block t frame idx ~prev ~from_inside =
    (* Block indices come from [BGo] targets and are in-bounds by
       construction. *)
    let lb = Array.unsafe_get frame.code.lblocks idx in
    let bi = lb.lbi in
    let label = bi.Fstatic.blk.label in
    if blocks_observed then
      P.block_enter t.pstate frame.pframe ~func:frame.fname ~block:label ~prev;
    (match frame.active_loops with
    | [] -> ()
    | loops -> frame.active_loops <- prune frame.ocache.keeps.(idx) loops);
    (match bi.Fstatic.bloop with
    | None -> ()
    | Some loop ->
      let oc = frame.ocache in
      let lo =
        match oc.locs.(idx) with
        | Some lo -> lo
        | None ->
          let lo =
            Dynobs.loop_obs t.obs ~cp_key:oc.key ~func:frame.fname
              ~header:label ~callpath:oc.path
              ~depth:loop.Ir.Loops.depth ~parent:loop.Ir.Loops.parent
          in
          oc.locs.(idx) <- Some lo;
          lo
      in
      Dynobs.record_arrival lo ~from_inside;
      (match t.im with
      | None -> ()
      | Some ic ->
        if from_inside then Obs_metrics.incr ic.Icounters.ic_loop_iters
        else Obs_metrics.incr ic.Icounters.ic_loop_entries);
      if (not from_inside) && Obs_trace.enabled t.trace then
        Obs_trace.instant t.trace ~cat:"loop" (frame.fname ^ "/" ^ label);
      (* [merge_enclosing] only ever adds context keys, so re-merging a
         physically identical (active, enclosing) context is a no-op and
         is skipped. *)
      let self = oc.selfs.(idx) in
      let active = frame.active_loops in
      let m = (2 * idx) + Bool.to_int from_inside in
      if oc.lmerged.(m) != active || oc.lmerged_enc.(m) != frame.enclosing
      then begin
        Dynobs.merge_enclosing lo ~self ~active ~enclosing:frame.enclosing;
        oc.lmerged.(m) <- active;
        oc.lmerged_enc.(m) <- frame.enclosing
      end;
      if not (List.memq self active) then
        if oc.push_key.(idx) == active then
          frame.active_loops <- oc.push_val.(idx)
        else begin
          let pushed = self :: active in
          oc.push_key.(idx) <- active;
          oc.push_val.(idx) <- pushed;
          frame.active_loops <- pushed
        end);
    let instrs = lb.linstrs in
    for i = 0 to Array.length instrs - 1 do
      exec_linstr t frame (Array.unsafe_get instrs i)
    done;
    step t;
    (match t.im with
    | None -> ()
    | Some ic -> Obs_metrics.incr ic.Icounters.ic_ctl);
    match lb.lterm with
    | LReturn op ->
      let v = lop_value frame op in
      if labels then
        t.ret_label <- P.return_label t.pstate frame.pframe (lop_label frame op);
      v
    | LJump (BGo (tgt, fi)) ->
      exec_block t frame tgt ~prev:lb.lprev ~from_inside:fi
    | LJump (BTrap e) -> raise e
    | LBranch (c, bthen, belse) -> (
      let v = lop_value frame c and l = lop_label frame c in
      let dep =
        if labels then P.branch_dep t.pstate frame.pframe l else P.clean
      in
      let taken = Eval.as_bool v in
      (match t.im with
      | None -> ()
      | Some ic ->
        Obs_metrics.incr ic.Icounters.ic_branches;
        if not (P.is_clean dep) then
          Obs_metrics.incr ic.Icounters.ic_tainted_branches);
      let odep = if labels then P.export t.pstate dep else Label.empty in
      let bo =
        match frame.ocache.bocs.(idx) with
        | Some bo -> bo
        | None ->
          let bo =
            Dynobs.branch_obs t.obs ~cp_key:frame.ocache.key ~func:frame.fname
              ~block:label ~callpath:frame.ocache.path
          in
          frame.ocache.bocs.(idx) <- Some bo;
          bo
      in
      Dynobs.record_branch bo ~dep:odep ~taken;
      (match bi.Fstatic.bexits with
      | [] -> ()
      | bexits ->
        if labels && not (Label.is_empty odep) then
          sink_exits t frame.ocache frame.ocache.sinks.(idx) 0 bexits odep);
      (if labels && P.wants_scope t.pstate l then
         P.scope_push t.pstate frame.pframe ~join:bi.Fstatic.bjoin l);
      match (if taken then bthen else belse) with
      | BGo (tgt, fi) ->
        exec_block t frame tgt ~prev:lb.lprev ~from_inside:fi
      | BTrap e -> raise e)

  (* -- entry points -------------------------------------------------------- *)

  let create ?(config = Engine.default_config) ?metrics
      ?(trace = Obs_trace.disabled) ?profile (program : Ir.Types.program) =
    let hint =
      List.fold_left
        (fun acc (f : func) ->
          List.fold_left
            (fun a (b : Ir.Types.block) -> a + List.length b.instrs)
            acc f.blocks)
        0 program.funcs
    in
    let findex = Hashtbl.create 16 in
    let funcs =
      (* First-wins on duplicate names, matching [find_func]'s scan. *)
      List.filter
        (fun (f : func) ->
          if Hashtbl.mem findex f.fname then false
          else begin
            Hashtbl.add findex f.fname (-1);
            true
          end)
        program.funcs
      |> Array.of_list
    in
    Array.iteri (fun i (f : func) -> Hashtbl.replace findex f.fname i) funcs;
    let pstate =
      P.create ~control_flow_taint:config.Engine.control_flow_taint ~hint
    in
    {
      program;
      config;
      max_steps = config.Engine.max_steps;
      pstate;
      harr = Array.make 64 [||];
      next_alloc = 0;
      steps = 0;
      argv_buf = Array.make 8 vunset;
      argl_buf = Array.make 8 P.clean;
      funcs;
      findex;
      compiled = Array.make (max 1 (Array.length funcs)) None;
      cp_keys = Hashtbl.create 64;
      obs = Obs.create ();
      prims = Hashtbl.create 16;
      call_depth = 0;
      ret_label = P.clean;
      im = Option.map Icounters.of_metrics metrics;
      trace;
      prof = profile;
    }

  let entry_callee t =
    (* [run] has already resolved the entry through [find_func], so the
       name is present; the lookup cannot fail. *)
    CIdx (Hashtbl.find t.findex t.program.entry)

  let run t args =
    let entry = find_func t.program t.program.entry in
    if List.length entry.fparams <> List.length args then
      Eval.error "entry %s expects %d arguments, got %d" entry.fname
        (List.length entry.fparams) (List.length args);
    let v = call t (entry_callee t) (List.map (fun v -> (v, P.clean)) args) in
    (v, P.export t.pstate t.ret_label)

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

(** The compiled tier under each bundled policy — the drop-in
    counterparts of {!Machine}, {!Plain} and {!Coverage}. *)
module Taint = Make (Taint_policy)

module Plain = Make (Plain_policy)
module Coverage = Make (Coverage_policy)
