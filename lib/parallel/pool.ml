(* Work-sharing domain pool, v2.

   v1 dispatched every parallel region by pushing one closure per helper
   onto a mutex/condvar queue.  Two consequences measured in PR 1's
   BENCH_kernels.json sank it: (a) each region paid a full
   lock/enqueue/wakeup round trip per helper, which dominated small
   regions, and (b) a region published while all workers were busy
   (Dataset.build's per-sample region publishing nested kernel regions)
   left the caller *blocked* on queued helper closures that could not
   run until a whole outer task finished — serializing the pipeline.

   v2 keeps the workers persistent and replaces the queue with a single
   published region descriptor: an atomic chunk counter plus completion
   and failure cells.  Workers spin briefly on an epoch counter
   (adaptive spin, then block on a condvar), and on wakeup claim chunks
   straight from the descriptor.  The caller always participates and
   never depends on any worker showing up: completion is "all chunks
   claimed and no executor still inside one", so a busy or sleeping
   worker costs nothing.

   Two policies fall out of the PR 1 postmortem:

   - {b No oversubscription.}  The pool never runs more domains than
     the hardware offers ([Domain.recommended_domain_count ()]); asking
     for more (env [DCO3D_JOBS] or {!set_jobs}) degrades gracefully to
     the sequential path instead of timeslicing one core between
     spinning domains.  [set_jobs ~exact:true] bypasses the clamp so
     tests can exercise real cross-domain schedules anywhere.
   - {b No nested parallelism.}  While a domain (worker *or* caller)
     executes a region, any region it opens runs inline.  Parallelism
     is spent at the outermost level (e.g. across dataset samples), and
     the kernels inside run sequentially — one level, never both.

   Which domain runs which chunk is scheduling-dependent; *what* each
   chunk computes, and the order in which chunk results are combined,
   is not — that is the determinism contract documented in the
   interface. *)

module Obs = Dco3d_obs.Obs

type region = {
  n_chunks : int;
  task : int -> unit;
  next : int Atomic.t;  (* next unclaimed chunk index *)
  running : int Atomic.t;  (* executors currently inside the claim loop *)
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
      (* first exception raised by any chunk; re-raised on the caller *)
}

type pool = {
  slot : region option Atomic.t;  (* currently published region *)
  epoch : int Atomic.t;  (* bumped on publish; workers wait on it *)
  sleepers : int Atomic.t;  (* workers blocked on [cond] *)
  mutex : Mutex.t;
  cond : Condition.t;
  stop : bool Atomic.t;
  caller_lock : Mutex.t;  (* one region in flight at a time *)
  mutable workers : unit Domain.t array;
  size : int;  (* total computing domains, including the caller *)
}

(* Set while a domain is executing region chunks (worker or caller);
   regions opened underneath run inline instead of re-entering the
   pool. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

(* Iterations of [Domain.cpu_relax] a worker spins on the epoch before
   blocking.  Regions issued back-to-back (a training step, the RUDY
   chunk stream) are picked up without a syscall; an idle pool parks
   its workers on the condvar within ~100 us. *)
let spin_count = 5_000

(* Claim-and-run loop shared by workers and the caller.  The [running]
   increment happens before the first claim, so an observer that sees
   [running = 0] *and* every chunk claimed knows no chunk body can
   still be executing (a late executor's first claim returns >= n).
   Chunks claimed after a failure are skipped: the region is aborting
   and the caller will re-raise. *)
let participate r =
  Atomic.incr r.running;
  let continue = ref true in
  while !continue do
    let c = Atomic.fetch_and_add r.next 1 in
    if c >= r.n_chunks || Atomic.get r.failed <> None then continue := false
    else
      try r.task c
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set r.failed None (Some (e, bt)))
  done;
  Atomic.decr r.running

let worker_loop pool =
  Domain.DLS.set in_worker true;
  let last = ref (Atomic.get pool.epoch) in
  let stopped () = Atomic.get pool.stop in
  while not (stopped ()) do
    (* adaptive spin: catch a new epoch without a syscall *)
    let spins = ref 0 in
    while Atomic.get pool.epoch = !last && (not (stopped ())) && !spins < spin_count do
      incr spins;
      Domain.cpu_relax ()
    done;
    if Atomic.get pool.epoch = !last && not (stopped ()) then begin
      Mutex.lock pool.mutex;
      Atomic.incr pool.sleepers;
      while Atomic.get pool.epoch = !last && not (stopped ()) do
        Condition.wait pool.cond pool.mutex
      done;
      Atomic.decr pool.sleepers;
      Mutex.unlock pool.mutex
    end;
    if not (stopped ()) then begin
      last := Atomic.get pool.epoch;
      match Atomic.get pool.slot with
      | Some r -> participate r
      | None -> ()
    end
  done

let hardware_jobs () = max 1 (Domain.recommended_domain_count ())

let env_jobs () =
  match Sys.getenv_opt "DCO3D_JOBS" with
  | None | Some "" -> hardware_jobs ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ ->
          invalid_arg
            (Printf.sprintf "DCO3D_JOBS: expected a positive integer, got %S" s))

(* Guards [requested], [exact] and [current]. *)
let state_mutex = Mutex.create ()
let requested : int option ref = ref None
let exact_requested = ref false
let current : pool option ref = ref None

let configured_jobs () =
  match !requested with Some n -> n | None -> env_jobs ()

let jobs () = configured_jobs ()

let effective_jobs () =
  let n = configured_jobs () in
  if !exact_requested then n else min n (hardware_jobs ())

let make_pool size =
  let pool =
    {
      slot = Atomic.make None;
      epoch = Atomic.make 0;
      sleepers = Atomic.make 0;
      mutex = Mutex.create ();
      cond = Condition.create ();
      stop = Atomic.make false;
      caller_lock = Mutex.create ();
      workers = [||];
      size;
    }
  in
  pool.workers <-
    Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  Atomic.set pool.stop true;
  (* the epoch bump knocks spinners out of their wait loop; the
     broadcast wakes parked workers *)
  Atomic.incr pool.epoch;
  Mutex.lock pool.mutex;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join pool.workers

let set_jobs ?(exact = false) n =
  if n < 1 then invalid_arg "Pool.set_jobs: need at least one job";
  Mutex.lock state_mutex;
  let old = !current in
  current := None;
  requested := Some n;
  exact_requested := exact;
  Mutex.unlock state_mutex;
  Option.iter shutdown old

let get_pool () =
  Mutex.lock state_mutex;
  let pool =
    match !current with
    | Some p -> p
    | None ->
        let size =
          let n = configured_jobs () in
          if !exact_requested then n else min n (hardware_jobs ())
        in
        let p = make_pool size in
        current := Some p;
        p
  in
  Mutex.unlock state_mutex;
  pool

(* Publish [r] as the pool's active region and wake anyone parked.  The
   slot is written before the epoch moves, and both are atomics, so a
   worker that observes the new epoch observes the new slot. *)
let publish pool r =
  Atomic.set pool.slot (Some r);
  Atomic.incr pool.epoch;
  if Atomic.get pool.sleepers > 0 then begin
    Mutex.lock pool.mutex;
    Condition.broadcast pool.cond;
    Mutex.unlock pool.mutex
  end

(* Obs probes.  [pool/chunks] counts chunks at region entry, so for a
   region whose decomposition is a function of the range alone it
   depends only on the work submitted — invariant under DCO3D_JOBS.
   (Tensor's batch-axis ops cut one chunk per domain, so theirs is not;
   their results are, since a sample's bits never depend on its chunk.)
   The region counters record how regions were actually executed and
   *do* depend on the job count; they are diagnostics, not invariants. *)
let c_chunks = Obs.counter "pool/chunks"
let c_regions_parallel = Obs.counter "pool/regions_parallel"
let c_regions_inline = Obs.counter "pool/regions_inline"
let g_effective_jobs = Obs.gauge "pool/effective_jobs"

(* Run [run_chunk c] for every [0 <= c < n_chunks], on the pool when one
   is available and the region is not nested inside another region. *)
let run_region n_chunks run_chunk =
  if n_chunks > 0 then begin
    Obs.incr ~by:n_chunks c_chunks;
    let inline () =
      Obs.incr c_regions_inline;
      for c = 0 to n_chunks - 1 do
        run_chunk c
      done
    in
    if n_chunks = 1 || Domain.DLS.get in_worker || effective_jobs () = 1 then
      inline ()
    else begin
      let pool = get_pool () in
      if pool.size = 1 then inline ()
      else if not (Mutex.try_lock pool.caller_lock) then
        (* another domain owns the pool right now; the decomposition is
           deterministic either way, so just compute here *)
        inline ()
      else
        Fun.protect
          ~finally:(fun () -> Mutex.unlock pool.caller_lock)
          (fun () ->
            Obs.incr c_regions_parallel;
            Obs.set_gauge g_effective_jobs (float_of_int pool.size);
            (* Workers start with empty span stacks: hand every chunk
               the caller's span path, so a chunk's spans roll up to
               the same path whichever domain runs it. *)
            let task =
              if Obs.enabled () then begin
                let ctx = Obs.span_context () in
                fun c -> Obs.with_span_context ctx (fun () -> run_chunk c)
              end
              else run_chunk
            in
            let r =
              {
                n_chunks;
                task;
                next = Atomic.make 0;
                running = Atomic.make 0;
                failed = Atomic.make None;
              }
            in
            (* chunks this caller runs must not re-enter the pool *)
            Domain.DLS.set in_worker true;
            publish pool r;
            Fun.protect
              ~finally:(fun () -> Domain.DLS.set in_worker false)
              (fun () -> participate r);
            (* wait for helpers to leave their current chunk; the tail
               is at most one chunk long, so spinning beats parking *)
            while Atomic.get r.running > 0 do
              Domain.cpu_relax ()
            done;
            Atomic.set pool.slot None;
            match Atomic.get r.failed with
            | Some (e, bt) -> Printexc.raise_with_backtrace e bt
            | None -> ())
    end
  end

(* At most 256 chunks by default.  The decomposition is a function of
   the range alone — never of the job count — so chunk-indexed results
   (and reductions over them) are stable across DCO3D_JOBS values. *)
let resolve_chunk chunk lo hi =
  match chunk with
  | Some c when c >= 1 -> c
  | Some _ -> invalid_arg "Pool: chunk must be positive"
  | None -> max 1 ((hi - lo + 255) / 256)

let for_chunks ?chunk lo hi f =
  if hi > lo then begin
    let chunk = resolve_chunk chunk lo hi in
    let n_chunks = (hi - lo + chunk - 1) / chunk in
    run_region n_chunks (fun c ->
        let clo = lo + (c * chunk) in
        f clo (min hi (clo + chunk)))
  end

let parallel_for ?chunk lo hi f =
  for_chunks ?chunk lo hi (fun clo chi ->
      for i = clo to chi - 1 do
        f i
      done)

let parallel_for_reduce ?chunk ~init ~combine lo hi body =
  if hi <= lo then init
  else begin
    let chunk = resolve_chunk chunk lo hi in
    let n_chunks = (hi - lo + chunk - 1) / chunk in
    let partials = Array.make n_chunks None in
    run_region n_chunks (fun c ->
        let clo = lo + (c * chunk) in
        partials.(c) <- Some (body clo (min hi (clo + chunk))));
    Array.fold_left
      (fun acc p ->
        match p with Some v -> combine acc v | None -> assert false)
      init partials
  end

let tabulate ?chunk n f =
  if n < 0 then invalid_arg "Pool.tabulate: negative length";
  if n = 0 then [||]
  else
    (* per-chunk sub-arrays concatenated in chunk order, so no dummy
       element is ever needed *)
    parallel_for_reduce ?chunk ~init:[]
      ~combine:(fun acc part -> part :: acc)
      0 n
      (fun lo hi -> Array.init (hi - lo) (fun i -> f (lo + i)))
    |> List.rev |> Array.concat

let map_array ?chunk f a = tabulate ?chunk (Array.length a) (fun i -> f a.(i))
