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

type value = Obs_json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

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

let emit sink ?(severity = Info) ~component ?(fields = []) event =
  match sink with
  | Disabled -> ()
  | Recording r ->
    Mutex.lock r.e_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock r.e_mu)
      (fun () ->
        let ts =
          if r.e_ts then
            [ ( "ts_s",
                Float
                  (Int64.to_float (Int64.sub (Obs_clock.now_ns ()) r.e_t0)
                  *. 1e-9) ) ]
          else []
        in
        let line =
          Obs_json.to_string
            (Obj
               ((("seq", Int r.e_seq) :: ts)
               @ [ ("severity", Str (severity_name severity));
                   ("component", Str component); ("event", Str event) ]
               @ fields))
        in
        r.e_seq <- r.e_seq + 1;
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
