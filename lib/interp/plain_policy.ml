(** The no-analysis policy: clean execution with zero shadow bookkeeping.

    [label] is {!Taint.Label.t} but every produced label is
    [Label.empty]: no unions, no shadow tables, no control stack, and
    [export_args] is the identity (no per-prim copying).  This is the
    "many clean measurement runs" side of the paper's economy: the same
    programs, observations and step counts as {!Taint_policy}, minus all
    taint costs.  The private label table exists only so exported
    observation labels (always empty) have a home. *)

module Label = Taint.Label

(* Every hook below is a no-op producing [Label.empty]; the compiled
   tier specializes both away. *)
let tracks_labels = false
let observes_blocks = false

type state = { labels : Label.table }
type label = Label.t
type fstate = unit

let create ~control_flow_taint:_ ~hint:_ = { labels = Label.create () }
let table s = s.labels
let clean = Label.empty
let is_clean _ = true
let frame_slots _ _ = ()
let read_slot () _ = Label.empty
let write_slot _ () _ _ = ()
let bind_slot () _ _ = ()
let join2 _ _ _ = Label.empty
let on_alloc _ ~alloc:_ ~size:_ _ = Label.empty
let on_load _ ~alloc:_ ~offset:_ ~base:_ ~index:_ = Label.empty
let on_store _ () ~alloc:_ ~offset:_ ~base:_ ~index:_ ~data:_ = ()
let source _ ~param:_ (vl : Ir.Types.value * label) = vl

(* Every producer above yields [empty], so identity export is safe. *)
let export _ l = l
let import _ _ = Label.empty
let export_args _ args = args
let branch_dep _ () _ = Label.empty
let return_label _ () _ = Label.empty
let wants_scope _ _ = false
let scope_push _ () ~join:_ _ = ()
let block_enter _ () ~func:_ ~block:_ ~prev:_ = ()
