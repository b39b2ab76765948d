(** Structured JSON-lines event stream (see obs_events.mli).  One JSON
    object per line, flushed per event when backed by a file, guarded by
    a mutex; emitters keep all ordering on a single writer domain so the
    sequence numbers are deterministic. *)

type severity = Debug | Info | Warn | Error

let severity_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type value = Int of int | Float of float | Str of string | Bool of bool

type recorder = {
  e_mu : Mutex.t;
  e_t0 : int64;
  e_ts : bool;
  e_oc : out_channel option;
  mutable e_seq : int;
  mutable e_rev : string list;  (* every emitted line, newest first *)
}

type sink = Disabled | Recording of recorder

let disabled = Disabled

let make ~ts oc =
  Recording
    {
      e_mu = Mutex.create ();
      e_t0 = Obs_clock.now_ns ();
      e_ts = ts;
      e_oc = oc;
      e_seq = 0;
      e_rev = [];
    }

let create ?(ts = true) () = make ~ts None
let to_file ?(ts = true) path = make ~ts (Some (open_out path))

let enabled = function Disabled -> false | Recording _ -> true

let close = function
  | Disabled -> ()
  | Recording r -> (
    match r.e_oc with None -> () | Some oc -> close_out oc)

let value_repr = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_nan f || not (Float.is_finite f) then "null"
    else Printf.sprintf "%.12g" f
  | Str s -> Printf.sprintf "\"%s\"" (Obs_json.escape s)
  | Bool b -> if b then "true" else "false"

let emit sink ?(severity = Info) ~component ?(fields = []) event =
  match sink with
  | Disabled -> ()
  | Recording r ->
    Mutex.lock r.e_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock r.e_mu)
      (fun () ->
        let buf = Buffer.create 128 in
        Buffer.add_string buf (Printf.sprintf "{\"seq\": %d" r.e_seq);
        r.e_seq <- r.e_seq + 1;
        if r.e_ts then
          Buffer.add_string buf
            (Printf.sprintf ", \"ts_s\": %.6f"
               (Int64.to_float (Int64.sub (Obs_clock.now_ns ()) r.e_t0)
               *. 1e-9));
        Buffer.add_string buf
          (Printf.sprintf
             ", \"severity\": \"%s\", \"component\": \"%s\", \"event\": \"%s\""
             (severity_name severity)
             (Obs_json.escape component)
             (Obs_json.escape event));
        List.iter
          (fun (k, v) ->
            Buffer.add_string buf
              (Printf.sprintf ", \"%s\": %s" (Obs_json.escape k)
                 (value_repr v)))
          fields;
        Buffer.add_char buf '}';
        let line = Buffer.contents buf in
        r.e_rev <- line :: r.e_rev;
        match r.e_oc with
        | None -> ()
        | Some oc ->
          output_string oc line;
          output_char oc '\n';
          (* Flush per event: the log must survive a kill with only the
             in-flight line lost, like the campaign journal. *)
          flush oc)

let lines = function
  | Disabled -> []
  | Recording r ->
    Mutex.lock r.e_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock r.e_mu)
      (fun () -> List.rev r.e_rev)

let count = function
  | Disabled -> 0
  | Recording r ->
    Mutex.lock r.e_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock r.e_mu) (fun () -> r.e_seq)
