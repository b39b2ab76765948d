(** Deterministic fault plans for measurement campaigns.

    Real campaigns (Piz Daint, the Skylake system) lose runs to node
    crashes, hung jobs, straggler nodes, and corrupted timers.  A fault
    plan decides, *deterministically from the run coordinates*
    (configuration × repetition) and a seed, whether a given run is
    faulty, what kind of fault it suffers, and whether the fault is
    transient (goes away after a bounded number of retries) or persistent
    (every attempt fails until the campaign gives the coordinate up).

    Determinism matters twice: campaigns are reproducible from their
    seed, and a checkpoint/resume cycle re-derives exactly the faults the
    interrupted campaign saw. *)

type kind =
  | Crash              (** the run dies partway through; no data *)
  | Hang               (** the run never terminates; the harness kills it
                           once the retry policy's hang timeout has
                           burned *)
  | Straggler of float (** the run completes with all durations inflated
                           by the factor (a slow node) *)
  | Corrupt of float   (** the run completes but its recorded durations
                           are outliers scaled by the factor (a broken
                           timer) *)

type persistence =
  | Transient of int  (** the fault fires on the first [n] attempts only *)
  | Persistent        (** the fault fires on every attempt *)

type fault = { f_kind : kind; f_persistence : persistence }

type plan = {
  fp_seed : int;
  fp_crash : float;
  fp_hang : float;
  fp_straggler : float;
  fp_corrupt : float;
  fp_persistent : float;
      (** share of injected faults that are persistent rather than
          transient *)
  fp_transient_attempts : int;
      (** a transient fault fires on the first 1..n attempts, drawn
          per coordinate *)
}

let none =
  { fp_seed = 0; fp_crash = 0.; fp_hang = 0.; fp_straggler = 0.;
    fp_corrupt = 0.; fp_persistent = 0.; fp_transient_attempts = 2 }

let uniform ?(seed = 0) ?(persistent = 0.) rate =
  { none with fp_seed = seed; fp_crash = rate; fp_hang = rate;
    fp_straggler = rate; fp_corrupt = rate; fp_persistent = persistent }

let total_rate p = p.fp_crash +. p.fp_hang +. p.fp_straggler +. p.fp_corrupt

let kind_name = function
  | Crash -> "crash"
  | Hang -> "hang"
  | Straggler _ -> "straggler"
  | Corrupt _ -> "corrupt"

let kind_names = [ "crash"; "hang"; "straggler"; "corrupt" ]

(* Mix seed and run coordinates exactly like {!Noise.create}: the fault
   stream is independent of the measurement-noise stream (different salt
   prefix) but equally reproducible. *)
let state plan ~params ~rep =
  let h = Hashtbl.hash ("fault", List.sort compare params, rep) in
  Random.State.make [| plan.fp_seed; h |]

let at plan ~(params : Spec.params) ~rep =
  if total_rate plan <= 0. then None
  else begin
    let st = state plan ~params ~rep in
    let u = Random.State.float st 1. in
    let pick =
      if u < plan.fp_crash then Some Crash
      else if u < plan.fp_crash +. plan.fp_hang then Some Hang
      else if u < plan.fp_crash +. plan.fp_hang +. plan.fp_straggler then
        (* Slow node: 2-8x inflation, the straggler band of real systems. *)
        Some (Straggler (2. +. (6. *. Random.State.float st 1.)))
      else if u < total_rate plan then
        (* Broken timer: a 25-100x outlier, far outside any noise band. *)
        Some (Corrupt (25. +. (75. *. Random.State.float st 1.)))
      else None
    in
    match pick with
    | None -> None
    | Some kind ->
      let persistence =
        if Random.State.float st 1. < plan.fp_persistent then Persistent
        else
          Transient (1 + Random.State.int st (max 1 plan.fp_transient_attempts))
      in
      Some { f_kind = kind; f_persistence = persistence }
  end

let active fault ~attempt =
  match fault.f_persistence with
  | Persistent -> Some fault.f_kind
  | Transient n -> if attempt < n then Some fault.f_kind else None

(* -- textual plan specs (CLI flags, journal headers) ----------------------- *)

let print_spec p =
  Printf.sprintf
    "crash=%g,hang=%g,straggler=%g,corrupt=%g,persistent=%g,attempts=%d,seed=%d"
    p.fp_crash p.fp_hang p.fp_straggler p.fp_corrupt p.fp_persistent
    p.fp_transient_attempts p.fp_seed

(* Every campaign without faults keys and journals under the empty
   plan's spec, so it is printed once.  The rates compare bit for bit
   with {!none}'s zeros: "%g" prints a -0. rate as "-0", which [=] would
   take for none. *)
let none_spec = print_spec none

let is_none p =
  let zero r = r = 0. && not (Float.sign_bit r) in
  p.fp_seed = none.fp_seed
  && p.fp_transient_attempts = none.fp_transient_attempts
  && zero p.fp_crash && zero p.fp_hang && zero p.fp_straggler
  && zero p.fp_corrupt && zero p.fp_persistent

let spec_of p = if is_none p then none_spec else print_spec p

let of_spec s =
  let parse_field plan field =
    match String.index_opt field '=' with
    | None -> Error (Printf.sprintf "fault spec field %S is not key=value" field)
    | Some i ->
      let key = String.sub field 0 i in
      let v = String.sub field (i + 1) (String.length field - i - 1) in
      let rate () =
        match float_of_string_opt v with
        | Some r when r >= 0. && r <= 1. -> Ok r
        | _ -> Error (Printf.sprintf "fault rate %s=%s is not in [0,1]" key v)
      in
      (match key with
      | "crash" -> Result.map (fun r -> { plan with fp_crash = r }) (rate ())
      | "hang" -> Result.map (fun r -> { plan with fp_hang = r }) (rate ())
      | "straggler" ->
        Result.map (fun r -> { plan with fp_straggler = r }) (rate ())
      | "corrupt" -> Result.map (fun r -> { plan with fp_corrupt = r }) (rate ())
      | "persistent" ->
        Result.map (fun r -> { plan with fp_persistent = r }) (rate ())
      | "attempts" -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> Ok { plan with fp_transient_attempts = n }
        | _ -> Error (Printf.sprintf "attempts=%s is not a positive int" v))
      | "seed" -> (
        match int_of_string_opt v with
        | Some n -> Ok { plan with fp_seed = n }
        | None -> Error (Printf.sprintf "seed=%s is not an int" v))
      | _ ->
        Error
          (Printf.sprintf
             "unknown fault spec key %s (crash, hang, straggler, corrupt, \
              persistent, attempts, seed)"
             key))
  in
  if String.trim s = "" then Ok none
  else
    List.fold_left
      (fun acc field -> Result.bind acc (fun plan -> parse_field plan field))
      (Ok none)
      (String.split_on_char ',' (String.trim s))
