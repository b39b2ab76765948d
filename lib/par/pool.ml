(** Deterministic domain pool: fixed workers, chunked queue, ordered
    collection. See pool.mli for the contract. *)

type task = unit -> unit

(* The state a pool with worker domains shares between them; a one-job
   pool has none, so its [map] cannot touch anything another domain
   sees. *)
type workers = {
  mu : Mutex.t;
  cond : Condition.t; (* signalled when the queue grows or closes *)
  queue : task Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
  (* Completion of the in-flight map: the submitter waits here after
     draining its own share of the queue. *)
  done_mu : Mutex.t;
  done_cond : Condition.t;
  remaining : int Atomic.t;
}

type t = {
  pjobs : int;
  workers : workers option; (* [None] exactly when [pjobs = 1] *)
  (* Counters, bumped only from the submitting domain so the registry
     never sees cross-domain writes. *)
  c_pools : Obs_metrics.counter option;
  c_maps : Obs_metrics.counter option;
  c_chunks : Obs_metrics.counter option;
  c_tasks : Obs_metrics.counter option;
}

let counters =
  [
    ("par.pools", "domain pools created");
    ("par.maps", "parallel map operations dispatched");
    ("par.chunks", "work-queue chunks enqueued (grain is scheduling policy)");
    ("par.tasks", "individual tasks executed through a pool");
  ]

let worker_loop w () =
  let rec loop () =
    Mutex.lock w.mu;
    while Queue.is_empty w.queue && not w.closed do
      Condition.wait w.cond w.mu
    done;
    let job =
      if Queue.is_empty w.queue then None else Some (Queue.pop w.queue)
    in
    Mutex.unlock w.mu;
    match job with
    | None -> () (* closed and drained *)
    | Some task ->
      (* Tasks wrap their own exceptions into the result slot; a raise
         here would only mean a bug in the pool itself, but never let it
         kill the domain and wedge a join. *)
      (try task () with _ -> ());
      loop ()
  in
  loop ()

let create ?metrics ~jobs () =
  let pjobs = max 1 jobs in
  let c name =
    Option.map (fun reg -> Obs_metrics.counter reg name) metrics
  in
  let workers =
    if pjobs = 1 then None
    else begin
      let w =
        {
          mu = Mutex.create ();
          cond = Condition.create ();
          queue = Queue.create ();
          closed = false;
          domains = [];
          done_mu = Mutex.create ();
          done_cond = Condition.create ();
          remaining = Atomic.make 0;
        }
      in
      w.domains <- List.init (pjobs - 1) (fun _ -> Domain.spawn (worker_loop w));
      Some w
    end
  in
  let t =
    {
      pjobs;
      workers;
      c_pools = c "par.pools";
      c_maps = c "par.maps";
      c_chunks = c "par.chunks";
      c_tasks = c "par.tasks";
    }
  in
  Option.iter Obs_metrics.incr t.c_pools;
  t

let serial =
  { pjobs = 1; workers = None; c_pools = None; c_maps = None; c_chunks = None;
    c_tasks = None }

let jobs t = t.pjobs
let wave t = if t.pjobs = 1 then 1 else 4 * t.pjobs

let shutdown t =
  match t.workers with
  | None -> ()
  | Some w ->
    Mutex.lock w.mu;
    let ds = w.domains in
    w.closed <- true;
    w.domains <- [];
    Condition.broadcast w.cond;
    Mutex.unlock w.mu;
    List.iter Domain.join ds

let with_pool ?metrics ~jobs f =
  let t = create ?metrics ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let default_chunk n jobs = max 1 (min 64 (n / (jobs * 4)))

(* One slot per input element; [Error] carries the backtrace so the
   deterministic re-raise below points at the task, not at the pool. *)
type 'b slot = ('b, exn * Printexc.raw_backtrace) result option

let map t ?chunk f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> default_chunk n t.pjobs
    in
    let results : _ slot array = Array.make n None in
    let nchunks = (n + chunk - 1) / chunk in
    Option.iter Obs_metrics.incr t.c_maps;
    Option.iter (fun c -> Obs_metrics.add c nchunks) t.c_chunks;
    Option.iter (fun c -> Obs_metrics.add c n) t.c_tasks;
    let run_item i =
      results.(i) <-
        Some
          (try Ok (f arr.(i))
           with e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    (match t.workers with
    | Some w when not w.closed ->
      Atomic.set w.remaining nchunks;
      let run_chunk lo () =
        for i = lo to min n (lo + chunk) - 1 do
          run_item i
        done;
        (* The fetch-and-add is the release point publishing the slots;
           the submitter's read of [remaining] acquires them. *)
        if Atomic.fetch_and_add w.remaining (-1) = 1 then begin
          Mutex.lock w.done_mu;
          Condition.broadcast w.done_cond;
          Mutex.unlock w.done_mu
        end
      in
      Mutex.lock w.mu;
      for k = 1 to nchunks - 1 do
        Queue.push (run_chunk (k * chunk)) w.queue
      done;
      Condition.broadcast w.cond;
      Mutex.unlock w.mu;
      (* The submitter works too: it runs the first chunk, then steals
         from the shared queue until dry. *)
      run_chunk 0 ();
      let rec help () =
        Mutex.lock w.mu;
        let job =
          if Queue.is_empty w.queue then None else Some (Queue.pop w.queue)
        in
        Mutex.unlock w.mu;
        match job with
        | Some task ->
          task ();
          help ()
        | None -> ()
      in
      help ();
      Mutex.lock w.done_mu;
      while Atomic.get w.remaining > 0 do
        Condition.wait w.done_cond w.done_mu
      done;
      Mutex.unlock w.done_mu
    | _ ->
      (* A one-job or shut-down pool: a plain in-order loop on the
         calling domain. *)
      for i = 0 to n - 1 do
        run_item i
      done);
    (* Ordered collection: walk slots in input order; first Error wins,
       which makes the raised exception independent of scheduling. *)
    let out = ref [] in
    let err = ref None in
    for i = n - 1 downto 0 do
      match results.(i) with
      | Some (Ok v) -> out := v :: !out
      | Some (Error e) -> err := Some e
      | None -> assert false
    done;
    (match !err with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    !out
  end
