(** Deterministic sampling profiler for the interpreter (see
    obs_profile.mli).

    The profiler is a call-tree trie plus a countdown.  [enter]/[leave]
    maintain the current trie node (one hash lookup per call, amortized
    by interning); [tick] decrements the countdown and, every
    [interval] executed steps, charges one sample to the current node.
    Nothing reads a clock, so two runs of the same program produce
    bit-identical profiles — the sample stream is a pure function of the
    executed instruction sequence. *)

type node = {
  n_id : int;           (* creation order; the deterministic merge order *)
  n_parent : int;       (* -1 for the root *)
  n_func : string;      (* "" for the root *)
  mutable n_count : int;
}

type t = {
  p_interval : int;
  mutable p_countdown : int;
  mutable p_samples : int;
  mutable p_next_id : int;
  p_by_id : (int, node) Hashtbl.t;
  p_children : (int * string, node) Hashtbl.t;
      (* (parent id, callee) -> node: the trie edges *)
  mutable p_stack : node list;  (* head = current node; empty = root *)
}

let default_interval = 1000

let create ?(interval = default_interval) () =
  if interval < 1 then
    invalid_arg "Obs_profile.create: interval must be >= 1";
  let root = { n_id = 0; n_parent = -1; n_func = ""; n_count = 0 } in
  let by_id = Hashtbl.create 64 in
  Hashtbl.replace by_id 0 root;
  {
    p_interval = interval;
    p_countdown = interval;
    p_samples = 0;
    p_next_id = 1;
    p_by_id = by_id;
    p_children = Hashtbl.create 64;
    p_stack = [];
  }

let interval t = t.p_interval
let samples t = t.p_samples

let root t = Hashtbl.find t.p_by_id 0

let current t = match t.p_stack with n :: _ -> n | [] -> root t

let child t parent fname =
  let key = (parent.n_id, fname) in
  match Hashtbl.find_opt t.p_children key with
  | Some n -> n
  | None ->
    let n =
      { n_id = t.p_next_id; n_parent = parent.n_id; n_func = fname;
        n_count = 0 }
    in
    t.p_next_id <- t.p_next_id + 1;
    Hashtbl.replace t.p_by_id n.n_id n;
    Hashtbl.replace t.p_children key n;
    n

let enter t fname = t.p_stack <- child t (current t) fname :: t.p_stack

let leave t =
  match t.p_stack with [] -> () | _ :: rest -> t.p_stack <- rest

let tick t =
  t.p_countdown <- t.p_countdown - 1;
  if t.p_countdown = 0 then begin
    t.p_countdown <- t.p_interval;
    t.p_samples <- t.p_samples + 1;
    let n = current t in
    n.n_count <- n.n_count + 1
  end

(* -- paths ---------------------------------------------------------------- *)

(* The root-to-node function path; the root itself contributes nothing. *)
let path_of t n =
  let rec up acc n =
    if n.n_parent < 0 then acc
    else up (n.n_func :: acc) (Hashtbl.find t.p_by_id n.n_parent)
  in
  up [] n

(* Nodes in creation order: the id is assigned on first visit, so this
   order is a deterministic function of the execution. *)
let nodes_in_order t =
  Hashtbl.fold (fun _ n acc -> n :: acc) t.p_by_id []
  |> List.sort (fun a b -> compare a.n_id b.n_id)

(* -- merging -------------------------------------------------------------- *)

let merge ~into src =
  if into.p_interval <> src.p_interval then
    invalid_arg
      (Printf.sprintf
         "Obs_profile.merge: interval mismatch (%d vs %d)"
         into.p_interval src.p_interval);
  into.p_samples <- into.p_samples + src.p_samples;
  List.iter
    (fun n ->
      if n.n_count > 0 then begin
        let dst =
          List.fold_left (fun parent f -> child into parent f) (root into)
            (path_of src n)
        in
        dst.n_count <- dst.n_count + n.n_count
      end)
    (nodes_in_order src)

(* -- snapshots ------------------------------------------------------------ *)

type row = { pr_func : string; pr_self : int; pr_total : int }

type snapshot = {
  ps_interval : int;
  ps_samples : int;
  ps_funcs : row list;                  (* self-samples descending *)
  ps_paths : (string list * int) list;  (* lexicographic path order *)
}

let snapshot t =
  let self : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let total : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let bump tbl f n =
    Hashtbl.replace tbl f (n + Option.value ~default:0 (Hashtbl.find_opt tbl f))
  in
  let paths = ref [] in
  List.iter
    (fun n ->
      if n.n_count > 0 then begin
        let path = path_of t n in
        (match path with
        | [] -> ()  (* samples on the root: outside any function *)
        | _ ->
          bump self (List.nth path (List.length path - 1)) n.n_count;
          (* Total cost counts a function once per path even when it
             recurses into itself. *)
          List.iter (fun f -> bump total f n.n_count)
            (List.sort_uniq compare path));
        paths := (path, n.n_count) :: !paths
      end)
    (nodes_in_order t);
  let funcs =
    Hashtbl.fold
      (fun f s acc ->
        { pr_func = f; pr_self = s;
          pr_total = Option.value ~default:s (Hashtbl.find_opt total f) }
        :: acc)
      self []
    |> List.sort (fun a b ->
           match compare b.pr_self a.pr_self with
           | 0 -> compare a.pr_func b.pr_func
           | c -> c)
  in
  {
    ps_interval = t.p_interval;
    ps_samples = t.p_samples;
    ps_funcs = funcs;
    ps_paths = List.sort compare !paths;
  }

(* -- exports -------------------------------------------------------------- *)

(* Collapsed-stacks text: "main;solve;spmv 42" per line, loadable by
   flamegraph.pl / speedscope / inferno.  Root samples render as
   "(root)". *)
let folded_of_snapshot s =
  let buf = Buffer.create 256 in
  List.iter
    (fun (path, count) ->
      let stack = match path with [] -> "(root)" | p -> String.concat ";" p in
      Buffer.add_string buf stack;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int count);
      Buffer.add_char buf '\n')
    s.ps_paths;
  Buffer.contents buf

let to_folded t = folded_of_snapshot (snapshot t)

let pp_table ?(top = 20) ppf s =
  Fmt.pf ppf "sampling profile: %d samples, 1 per %d steps@." s.ps_samples
    s.ps_interval;
  if s.ps_funcs <> [] then begin
    Fmt.pf ppf "%-36s %10s %10s %7s@." "function" "self" "total" "self%";
    let shown = ref 0 in
    List.iter
      (fun r ->
        if !shown < top then begin
          incr shown;
          Fmt.pf ppf "%-36s %10d %10d %6.1f%%@." r.pr_func r.pr_self r.pr_total
            (100. *. float_of_int r.pr_self
             /. float_of_int (max 1 s.ps_samples))
        end)
      s.ps_funcs;
    let rest = List.length s.ps_funcs - !shown in
    if rest > 0 then Fmt.pf ppf "  (%d more functions)@." rest
  end

(* The profile JSON schema; [json_fields] re-exports the field names and
   meanings for doc/OBSERVABILITY.md and its drift test. *)
let json_fields =
  [
    ("profile.interval", "steps between samples (the sampling period)");
    ("profile.samples", "samples taken = executed steps / interval");
    ("profile.funcs", "per-function rows: func, self, total sample counts");
    ("profile.paths", "per-callpath rows: stack (root first) and samples");
  ]

let to_json t =
  let s = snapshot t in
  Obs_json.(
    Obj
      [ ("interval", Int s.ps_interval); ("samples", Int s.ps_samples);
        ( "funcs",
          List
            (List.map
               (fun r ->
                 Obj
                   [ ("func", Str r.pr_func); ("self", Int r.pr_self);
                     ("total", Int r.pr_total) ])
               s.ps_funcs) );
        ( "paths",
          List
            (List.map
               (fun (path, count) ->
                 Obj
                   [ ("stack", List (List.map (fun f -> Str f) path));
                     ("samples", Int count) ])
               s.ps_paths) ) ])
