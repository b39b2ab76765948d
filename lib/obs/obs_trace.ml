(** In-memory trace recorder with Chrome [trace_event] export.  Events are
    prepended to a list (reversed on read); timestamps are monotonic
    nanoseconds relative to sink creation. *)

type arg = Obs_json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of arg list
  | Obj of (string * arg) list

type phase = Begin | End | Instant

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts_ns : int64;
  ev_tid : int;
  ev_args : (string * arg) list;
}

type recorder = {
  t0 : int64;
  max_events : int;
  mu : Mutex.t;
      (* spans may be emitted from pool worker domains; every access to
         the mutable buffer state below goes through this mutex *)
  mutable rev_events : event list;
  mutable count : int;
  mutable dropped : int;
  skip_depth : (int, int ref) Hashtbl.t;
      (* per-domain-lane depth of spans whose Begin was dropped at the
         cap: their End must be dropped too so each lane stays matched *)
}

type sink = Disabled | Recording of recorder

let disabled = Disabled

let create ?(max_events = 1_000_000) () =
  Recording
    {
      t0 = Obs_clock.now_ns ();
      max_events;
      mu = Mutex.create ();
      rev_events = [];
      count = 0;
      dropped = 0;
      skip_depth = Hashtbl.create 4;
    }

let enabled = function Disabled -> false | Recording _ -> true

let now r = Int64.sub (Obs_clock.now_ns ()) r.t0
let self_tid () = (Domain.self () :> int)

let push r ev =
  r.rev_events <- ev :: r.rev_events;
  r.count <- r.count + 1

let skip_of r tid =
  match Hashtbl.find_opt r.skip_depth tid with
  | Some s -> s
  | None ->
    let s = ref 0 in
    Hashtbl.add r.skip_depth tid s;
    s

let locked r f =
  Mutex.lock r.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.mu) f

let span_begin sink ?(cat = "perf-taint") ?(args = []) name =
  match sink with
  | Disabled -> ()
  | Recording r ->
    let tid = self_tid () in
    locked r (fun () ->
        if r.count >= r.max_events then begin
          r.dropped <- r.dropped + 1;
          incr (skip_of r tid)
        end
        else
          push r
            { ev_name = name; ev_cat = cat; ev_ph = Begin; ev_ts_ns = now r;
              ev_tid = tid; ev_args = args })

let span_end sink ?(args = []) name =
  match sink with
  | Disabled -> ()
  | Recording r ->
    let tid = self_tid () in
    locked r (fun () ->
        let skip = skip_of r tid in
        if !skip > 0 then begin
          r.dropped <- r.dropped + 1;
          decr skip
        end
        else
          (* Ends of spans whose Begin made it into the buffer are
             recorded even past the cap, keeping every emitted pair in
             this lane matched. *)
          push r
            { ev_name = name; ev_cat = ""; ev_ph = End; ev_ts_ns = now r;
              ev_tid = tid; ev_args = args })

let instant sink ?(cat = "perf-taint") ?(args = []) name =
  match sink with
  | Disabled -> ()
  | Recording r ->
    let tid = self_tid () in
    locked r (fun () ->
        if r.count >= r.max_events then r.dropped <- r.dropped + 1
        else
          push r
            { ev_name = name; ev_cat = cat; ev_ph = Instant; ev_ts_ns = now r;
              ev_tid = tid; ev_args = args })

let with_span sink ?cat ?args name f =
  match sink with
  | Disabled -> f ()
  | Recording _ ->
    span_begin sink ?cat ?args name;
    let finally () = span_end sink name in
    Fun.protect ~finally f

let events = function
  | Disabled -> []
  | Recording r -> locked r (fun () -> List.rev r.rev_events)

let dropped_events = function
  | Disabled -> 0
  | Recording r -> locked r (fun () -> r.dropped)

(* Spans nest per emitting domain, not globally: events from concurrent
   lanes interleave freely in the buffer, so structural checks and span
   accounting first split the stream into per-tid lanes. *)
let lanes evs =
  let order = ref [] in
  let by_tid : (int, event list ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun ev ->
      match Hashtbl.find_opt by_tid ev.ev_tid with
      | Some l -> l := ev :: !l
      | None ->
        Hashtbl.add by_tid ev.ev_tid (ref [ ev ]);
        order := ev.ev_tid :: !order)
    evs;
  List.rev_map (fun tid -> List.rev !(Hashtbl.find by_tid tid)) !order
  |> List.rev

let balanced evs =
  let lane_balanced evs =
    let rec go stack = function
      | [] -> stack = []
      | ev :: rest -> (
        match ev.ev_ph with
        | Begin -> go (ev.ev_name :: stack) rest
        | End -> (
          match stack with
          | top :: stack' when top = ev.ev_name -> go stack' rest
          | _ -> false)
        | Instant -> go stack rest)
    in
    go [] evs
  in
  List.for_all lane_balanced (lanes evs)

(* -- Chrome trace_event serialization ------------------------------------ *)

let event_json ev =
  let ph = match ev.ev_ph with Begin -> "B" | End -> "E" | Instant -> "i" in
  Obj
    ([ ("name", Str ev.ev_name); ("ph", Str ph);
       ("ts", Float (Int64.to_float ev.ev_ts_ns /. 1e3));
       ("pid", Int 1); ("tid", Int (ev.ev_tid + 1)) ]
    @ (if ev.ev_cat = "" then [] else [ ("cat", Str ev.ev_cat) ])
    (* Instant events need a scope; thread scope renders as a tick mark. *)
    @ (if ev.ev_ph = Instant then [ ("s", Str "t") ] else [])
    @ if ev.ev_args = [] then [] else [ ("args", Obj ev.ev_args) ])

(* Each event is built and printed before the next, so a large trace is
   never held as one JSON tree; only the envelope is written by hand. *)
let write_chrome add sink =
  add "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then add ",\n";
      add (Obs_json.to_string (event_json ev)))
    (events sink);
  add "],\"displayTimeUnit\":\"ms\"";
  let d = dropped_events sink in
  if d > 0 then add (",\"droppedEvents\":" ^ string_of_int d);
  add "}\n"

let to_chrome_string sink =
  let buf = Buffer.create 4096 in
  write_chrome (Buffer.add_string buf) sink;
  Buffer.contents buf

let write_file sink path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write_chrome (output_string oc) sink)

(* -- summary ------------------------------------------------------------- *)

type span_total = { st_name : string; st_count : int; st_total_s : float }

let span_totals sink =
  let totals : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  let rec go stack = function
    | [] -> ()
    | ev :: rest ->
      (match ev.ev_ph with
      | Begin -> go ((ev.ev_name, ev.ev_ts_ns) :: stack) rest
      | End -> (
        match stack with
        | (name, t0) :: stack' when name = ev.ev_name ->
          let dt = Int64.to_float (Int64.sub ev.ev_ts_ns t0) *. 1e-9 in
          let n, total =
            Option.value ~default:(0, 0.) (Hashtbl.find_opt totals name)
          in
          Hashtbl.replace totals name (n + 1, total +. dt);
          go stack' rest
        | _ -> go stack rest)
      | Instant -> go stack rest)
  in
  List.iter (go []) (lanes (events sink));
  Hashtbl.fold
    (fun name (n, total) acc ->
      { st_name = name; st_count = n; st_total_s = total } :: acc)
    totals []
  |> List.sort (fun a b -> compare b.st_total_s a.st_total_s)

let pp_summary ppf sink =
  List.iter
    (fun st ->
      Fmt.pf ppf "  %-40s %8d x %12.6f s@." st.st_name st.st_count st.st_total_s)
    (span_totals sink);
  let d = dropped_events sink in
  if d > 0 then Fmt.pf ppf "  (%d events dropped at buffer cap)@." d
