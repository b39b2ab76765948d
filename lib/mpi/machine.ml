(** Machine model of the simulated cluster.

    Stands in for the Piz Daint and Skylake systems of Table 1: a cluster
    of identical nodes, each with a fixed core count and a shared memory
    bandwidth.  The memory-bandwidth saturation curve drives the hardware
    contention experiment (paper Figure 5): kernels with significant
    memory traffic slow down as more MPI ranks share a socket, even though
    their code has no dependence on the rank count. *)

type t = {
  name : string;
  nodes : int;
  sockets_per_node : int;
  cores_per_socket : int;
  mem_bw_gbs : float;        (** per-socket memory bandwidth, GB/s *)
  rank_demand_gbs : float;   (** bandwidth demand of one busy rank, GB/s *)
  net_latency_s : float;     (** point-to-point latency, seconds *)
  net_byte_time : float;     (** seconds per byte on the network *)
  hook_cost_s : float;       (** cost of one instrumentation enter/exit pair *)
}

(* Loosely calibrated on the Skylake cluster of Table 1: 36 cores,
   ~100 GB/s per socket, s-range MPI latency, and Score-P hooks costing
   a few hundred nanoseconds per call. *)
let skylake_cluster =
  {
    name = "skylake";
    nodes = 32;
    sockets_per_node = 2;
    cores_per_socket = 18;
    mem_bw_gbs = 100.;
    rank_demand_gbs = 12.;
    net_latency_s = 1.5e-6;
    net_byte_time = 1. /. 10e9;
    hook_cost_s = 3.0e-7;
  }

let cores_per_node m = m.sockets_per_node * m.cores_per_socket

(** Slowdown factor (>= 1) experienced by fully memory-bound code when
    [ranks_per_node] ranks share a node.  Below the saturation point the
    socket serves every rank at full speed; past it, ranks contend and
    the effective per-rank bandwidth shrinks.  The resulting curve grows
    like log^2 of the rank count — the shape the paper fits in Figure 5
    (2.86 * log2^2 r + 127). *)
let contention_slowdown m ~ranks_per_node =
  if ranks_per_node <= 1 then 1.
  else begin
    (* Queueing delays on the shared memory controllers compound
       log-quadratically with the number of co-located ranks — the shape
       the paper measures in Figure 5 (2.86 * log2^2 r + 127 s).  The
       coefficient scales with how much of the socket bandwidth a single
       rank demands, calibrated so 18 ranks/node slow memory-bound code by
       ~1.8x (a ~50% whole-application slowdown at ~65% memory-boundness). *)
    let l = Float.log (float_of_int ranks_per_node) /. Float.log 2. in
    let intensity = m.rank_demand_gbs /. m.mem_bw_gbs in
    1. +. (0.50 *. intensity *. l *. l)
  end
