(** In-memory trace recorder with Chrome [trace_event] export.  Events are
    prepended to a list (reversed on read); timestamps are monotonic
    nanoseconds relative to sink creation. *)

type arg = Int of int | Float of float | String of string
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

let arg_repr = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_nan f || not (Float.is_finite f) then "null"
    else Printf.sprintf "%.12g" f
  | String s -> Printf.sprintf "\"%s\"" (Obs_json.escape s)

let ts_us ns = Int64.to_float ns /. 1e3

let event_repr buf ev =
  let ph =
    match ev.ev_ph with Begin -> "B" | End -> "E" | Instant -> "i"
  in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\": \"%s\", \"ph\": \"%s\", \"ts\": %.3f, \"pid\": 1, \"tid\": %d"
       (Obs_json.escape ev.ev_name) ph (ts_us ev.ev_ts_ns) (ev.ev_tid + 1));
  if ev.ev_cat <> "" then
    Buffer.add_string buf
      (Printf.sprintf ", \"cat\": \"%s\"" (Obs_json.escape ev.ev_cat));
  (* Instant events need a scope; thread scope renders as a tick mark. *)
  if ev.ev_ph = Instant then Buffer.add_string buf ", \"s\": \"t\"";
  (match ev.ev_args with
  | [] -> ()
  | args ->
    Buffer.add_string buf ", \"args\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf
          (Printf.sprintf "\"%s\": %s" (Obs_json.escape k) (arg_repr v)))
      args;
    Buffer.add_string buf "}");
  Buffer.add_string buf "}"

let to_chrome_string sink =
  let evs = events sink in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n ";
      event_repr buf ev)
    evs;
  Buffer.add_string buf "],\n \"displayTimeUnit\": \"ms\"";
  let d = dropped_events sink in
  if d > 0 then
    Buffer.add_string buf (Printf.sprintf ",\n \"droppedEvents\": %d" d);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file sink path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_string sink))

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
