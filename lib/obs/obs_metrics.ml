(** Metrics registry: interned counters, gauges, and fixed-bucket
    histograms.  Instruments are plain mutable records; the registry is a
    name -> instrument table consulted only at interning time, never on
    the update path. *)

type counter = { c_name : string; mutable c_count : int }
type gauge = { g_name : string; mutable g_value : float; mutable g_written : bool }

type histogram = {
  h_name : string;
  h_bounds : float array;   (* strictly increasing upper bounds *)
  h_counts : int array;     (* one per bound *)
  mutable h_overflow : int;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type t = {
  m_counters : (string, counter) Hashtbl.t;
  m_gauges : (string, gauge) Hashtbl.t;
  m_histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    m_counters = Hashtbl.create 32;
    m_gauges = Hashtbl.create 16;
    m_histograms = Hashtbl.create 8;
  }

(* -- counters ------------------------------------------------------------ *)

let counter t name =
  match Hashtbl.find_opt t.m_counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_count = 0 } in
    Hashtbl.replace t.m_counters name c;
    c

let incr c = c.c_count <- c.c_count + 1
let add c n = c.c_count <- c.c_count + n
let counter_value c = c.c_count

(* -- gauges -------------------------------------------------------------- *)

let gauge t name =
  match Hashtbl.find_opt t.m_gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0.; g_written = false } in
    Hashtbl.replace t.m_gauges name g;
    g

let set_gauge g v =
  g.g_value <- v;
  g.g_written <- true

let add_gauge g v =
  g.g_value <- (if g.g_written then g.g_value +. v else v);
  g.g_written <- true

let max_gauge g v =
  g.g_value <- (if g.g_written then Float.max g.g_value v else v);
  g.g_written <- true

(* -- histograms ---------------------------------------------------------- *)

(* Decade-ish default: good enough for durations in seconds and sizes. *)
let default_bounds =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10.; 100.; 1000. |]

let histogram t ?(bounds = default_bounds) name =
  match Hashtbl.find_opt t.m_histograms name with
  | Some h -> h
  | None ->
    let h =
      {
        h_name = name;
        h_bounds = Array.copy bounds;
        h_counts = Array.make (Array.length bounds) 0;
        h_overflow = 0;
        h_count = 0;
        h_sum = 0.;
        h_min = Float.infinity;
        h_max = Float.neg_infinity;
      }
    in
    Hashtbl.replace t.m_histograms name h;
    h

let observe h v =
  let n = Array.length h.h_bounds in
  let rec place i =
    if i >= n then h.h_overflow <- h.h_overflow + 1
    else if v <= h.h_bounds.(i) then h.h_counts.(i) <- h.h_counts.(i) + 1
    else place (i + 1)
  in
  place 0;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_min <- Float.min h.h_min v;
  h.h_max <- Float.max h.h_max v

(* -- snapshots ----------------------------------------------------------- *)

type hist_snapshot = {
  hs_buckets : (float * int) list;
  hs_overflow : int;
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot t =
  let counters =
    Hashtbl.fold (fun name c acc -> (name, c.c_count) :: acc) t.m_counters []
    |> List.sort by_name
  in
  let gauges =
    Hashtbl.fold
      (fun name g acc -> if g.g_written then (name, g.g_value) :: acc else acc)
      t.m_gauges []
    |> List.sort by_name
  in
  let histograms =
    Hashtbl.fold
      (fun name h acc ->
        let buckets =
          Array.to_list (Array.mapi (fun i b -> (b, h.h_counts.(i))) h.h_bounds)
        in
        ( name,
          {
            hs_buckets = buckets;
            hs_overflow = h.h_overflow;
            hs_count = h.h_count;
            hs_sum = h.h_sum;
            hs_min = h.h_min;
            hs_max = h.h_max;
          } )
        :: acc)
      t.m_histograms []
    |> List.sort by_name
  in
  { counters; gauges; histograms }

(* Monotone linear interpolation within buckets.  The q-th value is
   located by cumulative count; within its bucket the value interpolates
   linearly between the bucket's edges, with the first bucket's lower
   edge anchored at the observed minimum and the overflow bucket's upper
   edge at the observed maximum.  The result is clamped to
   [hs_min, hs_max], so quantiles can never leave the observed range. *)
let quantile hs q =
  if hs.hs_count = 0 then Float.nan
  else if q <= 0. then hs.hs_min
  else if q >= 1. then hs.hs_max
  else begin
    let target = q *. float_of_int hs.hs_count in
    let interp lower upper n cum =
      let lo = Float.max lower hs.hs_min in
      let hi = Float.min upper hs.hs_max in
      lo +. ((target -. cum) /. float_of_int n *. (hi -. lo))
    in
    let rec walk lower cum = function
      | [] ->
        if hs.hs_overflow = 0 then hs.hs_max
        else interp lower hs.hs_max hs.hs_overflow cum
      | (bound, n) :: rest ->
        if n > 0 && cum +. float_of_int n >= target then
          interp lower bound n cum
        else walk bound (cum +. float_of_int n) rest
    in
    let v = walk Float.neg_infinity 0. hs.hs_buckets in
    Float.min hs.hs_max (Float.max hs.hs_min v)
  end

let find_counter s name = List.assoc_opt name s.counters
let find_gauge s name = List.assoc_opt name s.gauges

let counters_with_prefix s prefix =
  let plen = String.length prefix in
  List.filter_map
    (fun (name, v) ->
      if String.length name > plen && String.sub name 0 plen = prefix then
        Some (String.sub name plen (String.length name - plen), v)
      else None)
    s.counters

let pp_summary ppf s =
  let open Fmt in
  List.iter (fun (n, v) -> pf ppf "  %-40s %12d@." n v) s.counters;
  List.iter (fun (n, v) -> pf ppf "  %-40s %12.6g@." n v) s.gauges;
  List.iter
    (fun (n, hs) ->
      if hs.hs_count = 0 then pf ppf "  %-40s (empty)@." n
      else
        pf ppf
          "  %-40s n=%d sum=%.6g min=%.3g p50=%.3g p95=%.3g p99=%.3g \
           max=%.3g@."
          n hs.hs_count hs.hs_sum hs.hs_min (quantile hs 0.50)
          (quantile hs 0.95) (quantile hs 0.99) hs.hs_max)
    s.histograms
