(** Machine model of the simulated cluster (the Table 1 systems). *)

type t = {
  name : string;
  nodes : int;
  sockets_per_node : int;
  cores_per_socket : int;
  mem_bw_gbs : float;        (** per-socket memory bandwidth, GB/s *)
  rank_demand_gbs : float;   (** bandwidth demand of one busy rank, GB/s *)
  net_latency_s : float;     (** point-to-point latency, seconds *)
  net_byte_time : float;     (** seconds per byte on the network *)
  hook_cost_s : float;       (** one instrumentation enter/exit pair *)
}

val skylake_cluster : t

val cores_per_node : t -> int

val contention_slowdown : t -> ranks_per_node:int -> float
(** Slowdown (>= 1) of fully memory-bound code when this many ranks share
    a node; grows log-quadratically (the Figure 5 shape). *)
