(** Fuzzing campaigns over the {!Gen} grammar and {!Oracle} checks. *)

type counterexample = {
  cx_oracle : string;           (** name of the violated oracle *)
  cx_message : string;          (** failure message on the minimized program *)
  cx_index : int;               (** index of the generated program in the campaign *)
  cx_program : Ir.Types.program; (** minimized failing program *)
  cx_text : string;             (** its [.pir] concrete syntax *)
  cx_lines : int;               (** line count of [cx_text] *)
}

type oracle_result = {
  or_name : string;
  or_runs : int;                (** programs this oracle checked *)
  or_cx : counterexample option; (** first failure, minimized *)
}

type report = { rp_seed : int; rp_budget : int; rp_results : oracle_result list }

val event_names : (string * string) list
(** The [fuzz.*] structured-event vocabulary (name, meaning) — kept in
    sync with doc/OBSERVABILITY.md by a drift test. *)

val run_campaign :
  ?pool:Par.Pool.t -> ?oracles:Oracle.t list ->
  ?config:Interp.Machine.config -> ?events:Obs_events.sink -> seed:int ->
  budget:int -> unit -> report
(** Generate [budget] programs from [seed] and check each against every
    oracle of [oracles] (default {!Oracle.all}) under [config] (as in
    {!Oracle.check}).  An oracle stops checking after its first failure,
    which is shrunk with {!Shrink.minimize} before being reported.
    Generation consumes the PRNG identically regardless of oracle
    outcomes, so a campaign is reproducible from its seed alone.

    [pool] (default {!Par.Pool.serial}) checks cases in waves of
    {!Par.Pool.wave}: generation remains one serial PRNG pass (identical
    corpus), and slot updates replay in case order on the submitting
    domain — verdicts, first-failure indices, shrunk counterexamples and
    [or_runs] are bit-identical at every job count.

    [events] receives one [fuzz.oracle] summary per oracle plus a
    [fuzz.counterexample] (error severity) per failure, derived from the
    finished report in oracle order — identical at any [--jobs]. *)

val counterexamples : report -> counterexample list

val save : dir:string -> seed:int -> counterexample -> string
(** Persist a minimized counterexample under [dir] (created if missing)
    as a replayable [.pir] file with a provenance header; returns the
    path. *)

val replay_file :
  ?oracles:Oracle.t list -> ?config:Interp.Machine.config -> string ->
  (string * Oracle.verdict) list
(** Parse a corpus [.pir] file and run each oracle on it.  [oracles] and
    [config] as in {!run_campaign}. *)
