(** The cluster run simulator: produces the "measurements" that the
    empirical modeler consumes.

    One simulated run executes an application at a parameter configuration
    under an instrumentation mode and yields per-kernel measurements and
    the total wall time.  Effects modeled, in order:

    - true kernel cost from the application's ground-truth spec;
    - memory-bandwidth contention scaling with ranks per node (Figure 5);
    - instrumentation hook overhead per observed call (Figures 3 and 4);
    - measurement intrusion under full instrumentation (B2);
    - multiplicative noise plus an additive per-invocation jitter floor
      that disproportionately disturbs short functions (B1). *)

module Machine = Mpi_sim.Machine

(** One observed function in one run.  [km_per_call] is the per-invocation
    exclusive time — the metric modeled by Extra-P, so that functions with
    parameter-independent bodies have constant models no matter how often
    an enclosing loop calls them. *)
type kernel_measurement = {
  km_name : string;
  km_calls : float;
  km_per_call : float;   (** measured seconds per invocation *)
  km_total : float;      (** measured aggregate seconds *)
}

type run = {
  rn_params : Spec.params;
  rn_mode : Instrument.mode;
  rn_rep : int;
  rn_ranks_per_node : int;
  rn_kernels : kernel_measurement list;  (** observed kernels only *)
  rn_total : float;       (** measured wall time, hooks included *)
  rn_base_total : float;  (** wall time of the same run uninstrumented, no noise *)
}

let ranks_of params =
  match List.assoc_opt "p" params with Some p -> int_of_float p | None -> 1

let ranks_per_node_of machine params =
  match List.assoc_opt "r" params with
  | Some r -> int_of_float r
  | None -> min (ranks_of params) (Machine.cores_per_node machine)

(* True (noise-free, uninstrumented) aggregate time of one kernel at this
   configuration, contention included. *)
let true_time machine ~ranks_per_node (k : Spec.kernel) params =
  let t0 = k.Spec.base_time params machine in
  let slow = Machine.contention_slowdown machine ~ranks_per_node in
  (t0 *. (1. -. k.Spec.memory_bound)) +. (t0 *. k.Spec.memory_bound *. slow)

(* Additive jitter per invocation, seconds: timer granularity and OS
   interference that a short function cannot amortise. *)
let per_call_jitter = 4.0e-9

let measure ?(sigma = 0.02) ?(seed = 42) ?(rep = 0) app machine ~params
    ~mode =
  let ranks_per_node = ranks_per_node_of machine params in
  let base_total = ref 0. in
  let wall = ref 0. in
  let kernels = ref [] in
  List.iter
    (fun (k : Spec.kernel) ->
      let calls = k.Spec.calls params in
      if calls > 0. then begin
        let t = true_time machine ~ranks_per_node k params in
        base_total := !base_total +. t;
        let per_call = t /. calls in
        let intrusion =
          match mode with
          | Instrument.Full -> k.Spec.full_instr_extra params machine
          | Instrument.Uninstrumented | Instrument.Default
          | Instrument.Selective _ -> 0.
        in
        let hooks =
          if Instrument.instrumented mode k then
            2. *. machine.Machine.hook_cost_s *. calls
          else 0.
        in
        wall := !wall +. t +. (intrusion *. calls) +. hooks;
        if Instrument.observed mode k then begin
          let rng =
            Noise.create ~seed ~salt:(app.Spec.aname, k.Spec.kname, params, rep)
          in
          let measured_per_call =
            Noise.perturb ~floor:per_call_jitter rng ~sigma (per_call +. intrusion)
          in
          kernels :=
            {
              km_name = k.Spec.kname;
              km_calls = calls;
              km_per_call = measured_per_call;
              km_total = measured_per_call *. calls;
            }
            :: !kernels
        end
      end)
    app.Spec.kernels;
  let rng_total = Noise.create ~seed ~salt:(app.Spec.aname, "$total", params, rep) in
  {
    rn_params = params;
    rn_mode = mode;
    rn_rep = rep;
    rn_ranks_per_node = ranks_per_node;
    rn_kernels = List.rev !kernels;
    rn_total = Noise.perturb ~floor:1e-4 rng_total ~sigma !wall;
    rn_base_total = !base_total;
  }

(* Tag the campaign with the run's simulated cost: run count, wall time
   distribution, and aggregate core-hours (paper Table 3's budget). *)
let count reg run =
  Obs_metrics.incr (Obs_metrics.counter reg "sim.runs");
  Obs_metrics.observe (Obs_metrics.histogram reg "sim.run_wall_s") run.rn_total;
  Obs_metrics.add_gauge
    (Obs_metrics.gauge reg "sim.core_hours")
    (run.rn_total *. float_of_int (ranks_of run.rn_params) /. 3600.)

(* -- clean program replay ------------------------------------------------ *)

(* The analytic simulator above plays measurement campaigns out of a
   ground-truth spec; [replay] executes an actual PIR program at one
   configuration through the Plain (shadow-free) engine — the "many clean
   measurement runs" half of the paper's economy, on the same programs
   the tainted pipeline analyzed. *)

type replay = {
  rp_params : Spec.params;
  rp_value : Ir.Types.value;    (** entry-function result *)
  rp_steps : int;               (** instructions + terminators executed *)
  rp_work : (string * int) list;
      (** per-function synthetic-work units, sorted by name — the
          replay's analogue of exclusive kernel time *)
  rp_calls : (string * int) list;  (** per-function invocation counts *)
}

(* The replay engine: the compiled tier under the Plain policy. *)
module E = Interp.Compiled.Plain

let replay ?config ?(world = Mpi_sim.Runtime.default_world) program ~params =
  let entry = Ir.Types.find_func program program.Ir.Types.entry in
  (* "p" doubles as the MPI world size when the entry does not take it
     explicitly: the communicator size enters through mpi_comm_size. *)
  let world =
    if List.mem "p" entry.Ir.Types.fparams then world
    else
      match List.assoc_opt "p" params with
      | Some p -> { world with Mpi_sim.Runtime.ranks = int_of_float p }
      | None -> world
  in
  let m = E.create ?config program in
  Mpi_sim.Runtime.install_host (module E) world m;
  let bindings =
    List.map
      (fun name ->
        match List.assoc_opt name params with
        | Some v -> (name, Ir.Types.VInt (int_of_float v))
        | None ->
          invalid_arg
            (Printf.sprintf "replay: no value for entry parameter %s" name))
      entry.Ir.Types.fparams
  in
  let v, _ = E.run_named m bindings in
  let obs = E.observations m in
  let fold f =
    Hashtbl.fold
      (fun name fo acc -> (name, f fo) :: acc)
      obs.Interp.Observations.funcs []
    |> List.sort compare
  in
  {
    rp_params = params;
    rp_value = v;
    rp_steps = E.steps_executed m;
    rp_work = fold (fun fo -> fo.Interp.Observations.fo_work);
    rp_calls = fold (fun fo -> fo.Interp.Observations.fo_calls);
  }

let replay_work r name =
  Option.value ~default:0 (List.assoc_opt name r.rp_work)

(** Instrumentation overhead of a run relative to the uninstrumented wall
    time of the same configuration, as a fraction (0.0 = no overhead). *)
let overhead run =
  if run.rn_base_total <= 0. then 0.
  else (run.rn_total -. run.rn_base_total) /. run.rn_base_total

let kernel_measurement run name =
  List.find_opt (fun km -> km.km_name = name) run.rn_kernels

(** Measured per-invocation time of [name], if observed in this run. *)
let kernel_time run name =
  Option.map (fun km -> km.km_per_call) (kernel_measurement run name)
