(** Ground-truth performance specification of a simulated application.

    The paper measures real applications on a real cluster; our testbed is
    synthetic, so each application carries an explicit ground truth: for
    every kernel, its true invocation count and true execution time as
    functions of the program parameters.  The simulator derives noisy,
    instrumented, contended measurements from this truth — and the truth
    doubles as the reference that the paper obtained from manual
    performance modeling (their "ground truth established with code
    inspection"). *)

module Machine = Mpi_sim.Machine

type params = (string * float) list

let param ps name =
  match List.assoc_opt name ps with
  | Some v -> v
  | None -> invalid_arg ("Spec.param: missing parameter " ^ name)

type kernel_kind =
  | Compute         (** an application computational kernel *)
  | Communication   (** an application routine dominated by MPI calls *)
  | Mpi             (** an MPI library routine itself *)
  | Helper          (** tiny accessor/setup code with constant runtime *)

type kernel = {
  kname : string;
  kind : kernel_kind;
  calls : params -> float;
      (** invocations per application run (per rank) *)
  base_time : params -> Machine.t -> float;
      (** total exclusive run time of all invocations, seconds, per rank *)
  memory_bound : float;
      (** fraction of [base_time] subject to memory-bandwidth contention *)
  tiny : bool;
      (** small enough that the compiler would inline it — excluded by the
          default Score-P filter, kept under full instrumentation *)
  full_instr_extra : params -> Machine.t -> float;
      (** additional *measured* time per invocation when the whole
          application is instrumented: the intrusion of hooks in its
          (otherwise invisible) callees — the B2 perturbation *)
  truth_deps : string list;
      (** parameters the kernel truly depends on (reference for quality
          experiments) *)
}

type app = {
  aname : string;
  kernels : kernel list;
  model_params : string list;
      (** the parameters varied in the modeling experiments *)
}

let kernel ?(kind = Compute) ?(memory_bound = 0.) ?(tiny = false)
    ?(full_instr_extra = fun _ _ -> 0.) ~calls ~base_time ~truth_deps kname =
  { kname; kind; calls; base_time; memory_bound; tiny; full_instr_extra;
    truth_deps }

let find_kernel app name =
  match List.find_opt (fun k -> k.kname = name) app.kernels with
  | Some k -> k
  | None -> invalid_arg ("Spec.find_kernel: unknown kernel " ^ name)
