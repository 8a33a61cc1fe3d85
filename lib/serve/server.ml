module P = Protocol
module Obs = Dco3d_obs.Obs
module Predictor = Dco3d_core.Predictor
module T = Dco3d_tensor.Tensor

type address = Unix_path of string | Tcp of string * int

type config = {
  address : address;
  queue_capacity : int;
  max_batch : int;
  batch_linger_ms : float;
  cache_capacity : int;
  spill_dir : string option;
  route_cache_dir : string option;
  corpus_dir : string option;
      (* PPA row store; defaults to <route_cache_dir>/corpus *)
  shard_id : int;
}

let default_config address =
  {
    address;
    queue_capacity = 64;
    max_batch = 8;
    batch_linger_ms = 2.0;
    cache_capacity = 128;
    spill_dir = None;
    route_cache_dir = None;
    corpus_dir = None;
    shard_id = 0;
  }

(* Obs probes (interning is idempotent, handles live at module level). *)
let c_requests = Obs.counter "serve/requests"
let c_cache_hit = Obs.counter "serve/cache_hit"
let c_cache_miss = Obs.counter "serve/cache_miss"
let c_overloaded = Obs.counter "serve/overloaded"
let c_timeout = Obs.counter "serve/timeout"
let c_epipe = Obs.counter "serve/epipe"
let c_spill_hit = Obs.counter "serve/spill_hit"
let c_spill_write = Obs.counter "serve/spill_write"
let g_queue_depth = Obs.gauge "serve/queue_depth"
let h_batch_size = Obs.histogram "serve/batch_size"

(* A predict request parked between its connection handler and the
   batcher.  The handler blocks on [cv] until the batcher (or the
   cache, or the deadline) fills [outcome]. *)
type pending = {
  payload : P.predict_payload;
  key : string;
  deadline : float option;  (** absolute, [Unix.gettimeofday] clock *)
  mutable outcome : P.reply option;
  pm : Mutex.t;
  pcv : Condition.t;
}

type stats_acc = {
  mutable n_requests : int;
  mutable n_cache_hits : int;
  mutable n_cache_misses : int;
  mutable n_overloaded : int;
  mutable n_timeouts : int;
  mutable n_batches : int;
  mutable max_batch_seen : int;
  mutable n_epipe : int;
  mutable jobs_submitted : int;
  mutable jobs_done : int;
  mutable jobs_failed : int;
  mutable n_spill_hits : int;
  mutable n_spill_writes : int;
  mutable corpus_submitted : int;
  mutable corpus_dedup : int;  (* submits answered with an in-flight id *)
  mutable corpus_done : int;
  mutable corpus_failed : int;
}

type t = {
  cfg : config;
  predictor : Predictor.t;
  fingerprint : string;
  listen : Unix.file_descr option;  (* absent for detached (shard) servers *)
  bound : address;
  (* Self-pipe: [request_stop] writes one byte so the accept loop's
     blocking select wakes immediately instead of on a poll tick. *)
  stop_rd : Unix.file_descr;
  stop_wr : Unix.file_descr;
  spill : Spill.t option;
  started_at : float;
  (* All mutable server state below is guarded by [m]. *)
  m : Mutex.t;
  queue_cv : Condition.t;  (* batcher wakeup *)
  flow_cv : Condition.t;  (* flow-worker wakeup *)
  corpus_cv : Condition.t;  (* corpus-worker wakeup *)
  queue : pending Queue.t;
  cache : (T.t * T.t) Lru.t;
  jobs : (int, P.job_status) Hashtbl.t;
  flow_queue : (int * P.flow_spec) Queue.t;
  corpus_jobs : (int, P.corpus_status) Hashtbl.t;
  corpus_queue : (int * string * P.corpus_req) Queue.t;  (* id, dedup key *)
  (* dedup key -> job id for queued/running corpus jobs: a duplicate
     submit joins the in-flight job instead of queueing a second run *)
  corpus_inflight : (string, int) Hashtbl.t;
  mutable next_job_id : int;
  mutable stopping : bool;
  mutable conns : Unix.file_descr list;  (* live connection sockets *)
  stats : stats_acc;
  mutable accept_thread : Thread.t option;
  mutable batcher_thread : Thread.t option;
  mutable flow_thread : Thread.t option;
  mutable corpus_thread : Thread.t option;
  mutable handler_threads : Thread.t list;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let now () = Unix.gettimeofday ()

let deadline_of arrival = function
  | None -> None
  | Some ms -> Some (arrival +. (ms /. 1000.))

let expired deadline = match deadline with Some d -> now () > d | None -> false

let resolve_pending p reply =
  Mutex.lock p.pm;
  p.outcome <- Some reply;
  Condition.signal p.pcv;
  Mutex.unlock p.pm

let await_pending p =
  Mutex.lock p.pm;
  while p.outcome = None do
    Condition.wait p.pcv p.pm
  done;
  let r = Option.get p.outcome in
  Mutex.unlock p.pm;
  r

(* ------------------------------------------------------------------ *)
(* Micro-batcher                                                       *)
(* ------------------------------------------------------------------ *)

(* Pop up to [max_batch] pending requests.  Called with [t.m] held and
   the queue non-empty. *)
let take_batch t =
  let n = min t.cfg.max_batch (Queue.length t.queue) in
  let batch = Array.init n (fun _ -> Queue.pop t.queue) in
  Obs.set_gauge g_queue_depth (float_of_int (Queue.length t.queue));
  batch

let run_batch t batch =
  (* Late cache check: an identical request may have been answered (and
     cached) since this one queued; and identical requests inside one
     batch should run the forward pass once. *)
  let misses = ref [] in
  let by_key : (string, pending list) Hashtbl.t = Hashtbl.create 8 in
  locked t (fun () ->
      Array.iter
        (fun p ->
          if expired p.deadline then begin
            t.stats.n_timeouts <- t.stats.n_timeouts + 1;
            Obs.incr c_timeout;
            resolve_pending p P.Timed_out
          end
          else
            match Lru.find t.cache p.key with
            | Some (cb, ct) ->
                t.stats.n_cache_hits <- t.stats.n_cache_hits + 1;
                Obs.incr c_cache_hit;
                resolve_pending p
                  (P.Predicted { c_bottom = cb; c_top = ct; cache_hit = true })
            | None ->
                if not (Hashtbl.mem by_key p.key) then misses := p :: !misses;
                Hashtbl.replace by_key p.key
                  (p :: Option.value ~default:[] (Hashtbl.find_opt by_key p.key)))
        batch);
  let misses = Array.of_list (List.rev !misses) in
  let n = Array.length misses in
  if n > 0 then begin
    Obs.observe h_batch_size (float_of_int n);
    (* the forward pass must not be able to kill the batcher thread: a
       malformed payload (wrong channel count, bad shape) raising out
       of here would leave every queued and future request waiting on
       [cv] forever.  Fail the affected requests, keep the loop. *)
    let results =
      try
        Ok
          (Obs.with_span "serve/batch"
             ~args:[ ("size", string_of_int n) ]
             (fun () ->
               Predictor.predict_batch t.predictor
                 (Array.map
                    (fun p -> (p.payload.P.f_bottom, p.payload.P.f_top))
                    misses)))
      with e -> Error (Printexc.to_string e)
    in
    match results with
    | Error msg ->
        locked t (fun () ->
            Array.iter
              (fun p ->
                List.iter
                  (fun q ->
                    resolve_pending q
                      (P.Server_error ("predict failed: " ^ msg)))
                  (Hashtbl.find by_key p.key))
              misses)
    | Ok results ->
    locked t (fun () ->
        t.stats.n_batches <- t.stats.n_batches + 1;
        if n > t.stats.max_batch_seen then t.stats.max_batch_seen <- n;
        Array.iteri
          (fun i p ->
            let cb, ct = results.(i) in
            Lru.put t.cache p.key (cb, ct);
            t.stats.n_cache_misses <-
              t.stats.n_cache_misses + List.length (Hashtbl.find by_key p.key);
            List.iter
              (fun q ->
                Obs.incr c_cache_miss;
                resolve_pending q
                  (P.Predicted { c_bottom = cb; c_top = ct; cache_hit = false }))
              (Hashtbl.find by_key p.key))
          misses)
  end

let batcher_loop t =
  let running = ref true in
  while !running do
    let batch =
      locked t (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.queue_cv t.m
          done;
          if Queue.is_empty t.queue then begin
            running := false;
            [||]
          end
          else if
            Queue.length t.queue < t.cfg.max_batch
            && t.cfg.batch_linger_ms > 0. && not t.stopping
          then [||] (* linger outside the lock, then retry *)
          else take_batch t)
    in
    if !running then
      if Array.length batch = 0 then begin
        (* Linger: give concurrent clients a moment to pile on, then
           take whatever is there.  OCaml's [Condition] has no timed
           wait, so this is a plain sleep. *)
        Thread.delay (t.cfg.batch_linger_ms /. 1000.);
        let batch =
          locked t (fun () ->
              if Queue.is_empty t.queue then [||] else take_batch t)
        in
        if Array.length batch > 0 then run_batch t batch
      end
      else run_batch t batch
  done

(* ------------------------------------------------------------------ *)
(* Flow worker                                                         *)
(* ------------------------------------------------------------------ *)

let run_flow_spec ?route_cache (spec : P.flow_spec) =
  let profile = Dco3d_netlist.Generator.profile spec.P.fl_design in
  let nl = Dco3d_netlist.Generator.generate ~scale:spec.P.fl_scale ~seed:spec.P.fl_seed profile in
  let ctx =
    Dco3d_flow.Flow.make_context ~seed:spec.P.fl_seed ~gcell_nx:spec.P.fl_gcell
      ~gcell_ny:spec.P.fl_gcell ?route_cache nl
  in
  let result =
    match spec.P.fl_variant with
    | P.Pin3d -> Dco3d_flow.Flow.run_pin3d ctx
    | P.Pin3d_cong -> Dco3d_flow.Flow.run_pin3d_cong ctx
  in
  {
    P.fs_name = result.Dco3d_flow.Flow.flow_name;
    fs_overflow = result.place_stage.overflow;
    fs_wirelength_um = result.signoff.wirelength_um;
    fs_wns_ps = result.signoff.wns_ps;
    fs_tns_ps = result.signoff.tns_ps;
    fs_power_mw = result.signoff.power_mw;
  }

let flow_loop t =
  (* Shards pass one shared directory, so repeated sweeps and sibling
     daemons replay each other's routed corpus (Framing's temp+rename
     writes make concurrent producers safe). *)
  let route_cache =
    Option.map
      (fun d -> Dco3d_route.Route_cache.create d)
      t.cfg.route_cache_dir
  in
  let running = ref true in
  while !running do
    let job =
      locked t (fun () ->
          while Queue.is_empty t.flow_queue && not t.stopping do
            Condition.wait t.flow_cv t.m
          done;
          if Queue.is_empty t.flow_queue then begin
            running := false;
            None
          end
          else Some (Queue.pop t.flow_queue))
    in
    match job with
    | None -> ()
    | Some (id, spec) ->
        locked t (fun () -> Hashtbl.replace t.jobs id P.Job_running);
        let status =
          try
            let summary =
              Obs.with_span "serve/flow_job"
                ~args:[ ("design", spec.P.fl_design) ]
                (fun () -> run_flow_spec ?route_cache spec)
            in
            P.Job_done summary
          with
          | Not_found ->
              P.Job_failed (Printf.sprintf "unknown design %S" spec.P.fl_design)
          | e -> P.Job_failed (Printexc.to_string e)
        in
        locked t (fun () ->
            Hashtbl.replace t.jobs id status;
            match status with
            | P.Job_done _ -> t.stats.jobs_done <- t.stats.jobs_done + 1
            | _ -> t.stats.jobs_failed <- t.stats.jobs_failed + 1)
  done

(* ------------------------------------------------------------------ *)
(* Corpus worker                                                       *)
(* ------------------------------------------------------------------ *)

module Corpus = Dco3d_corpus.Corpus
module Dataset = Dco3d_core.Dataset

let c_corpus_dedup = Obs.counter "serve/corpus_dedup"

let run_corpus_req ?store ?route_cache (req : P.corpus_req) =
  match req.P.cr_kind with
  | P.Corpus_ppa ->
      P.Corpus_row
        (Corpus.run_cell ?store ?route_cache req.P.cr_spec req.P.cr_config)
  | P.Corpus_dataset n_samples ->
      let d =
        Corpus.build_dataset ~n_samples ?route_cache req.P.cr_spec
          req.P.cr_config
      in
      P.Corpus_dataset_built
        {
          cd_design = d.Dataset.design;
          cd_samples = Array.length d.Dataset.samples;
          cd_digest = Dataset.digest d;
        }

let corpus_loop t =
  (* The PPA store sits next to the route cache (one layout corpus per
     fleet): an explicit --corpus-cache wins, else <route cache>/corpus,
     else no persistence (jobs still run). *)
  let route_cache =
    Option.map
      (fun d -> Dco3d_route.Route_cache.create d)
      t.cfg.route_cache_dir
  in
  let store_dir =
    match (t.cfg.corpus_dir, t.cfg.route_cache_dir) with
    | Some d, _ -> Some d
    | None, Some rc -> Some (Filename.concat rc "corpus")
    | None, None -> None
  in
  let store = Option.map (fun d -> Corpus.Store.create d) store_dir in
  let running = ref true in
  while !running do
    let job =
      locked t (fun () ->
          while Queue.is_empty t.corpus_queue && not t.stopping do
            Condition.wait t.corpus_cv t.m
          done;
          if Queue.is_empty t.corpus_queue then begin
            running := false;
            None
          end
          else Some (Queue.pop t.corpus_queue))
    in
    match job with
    | None -> ()
    | Some (id, key, req) ->
        locked t (fun () -> Hashtbl.replace t.corpus_jobs id P.Corpus_running);
        let status =
          try
            let result =
              Obs.with_span "serve/corpus_job"
                ~args:
                  [
                    ("design", req.P.cr_spec.Corpus.sp_name);
                    ("config", req.P.cr_config.Corpus.fc_name);
                  ]
                (fun () -> run_corpus_req ?store ?route_cache req)
            in
            P.Corpus_done result
          with
          | Not_found ->
              P.Corpus_failed
                (Printf.sprintf "unknown base profile %S"
                   req.P.cr_spec.Corpus.sp_base)
          | e -> P.Corpus_failed (Printexc.to_string e)
        in
        locked t (fun () ->
            Hashtbl.replace t.corpus_jobs id status;
            Hashtbl.remove t.corpus_inflight key;
            match status with
            | P.Corpus_done _ -> t.stats.corpus_done <- t.stats.corpus_done + 1
            | _ -> t.stats.corpus_failed <- t.stats.corpus_failed + 1)
  done

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_snapshot t =
  locked t (fun () ->
      let s = t.stats in
      [
        ("queue_depth", float_of_int (Queue.length t.queue));
        ("queue_capacity", float_of_int t.cfg.queue_capacity);
        ("cache_len", float_of_int (Lru.length t.cache));
        ("cache_capacity", float_of_int (Lru.capacity t.cache));
        ("requests", float_of_int s.n_requests);
        ("cache_hits", float_of_int s.n_cache_hits);
        ("cache_misses", float_of_int s.n_cache_misses);
        ("overloaded", float_of_int s.n_overloaded);
        ("timeouts", float_of_int s.n_timeouts);
        ("batches", float_of_int s.n_batches);
        ("max_batch", float_of_int s.max_batch_seen);
        ("epipe", float_of_int s.n_epipe);
        ("jobs_submitted", float_of_int s.jobs_submitted);
        ("jobs_done", float_of_int s.jobs_done);
        ("jobs_failed", float_of_int s.jobs_failed);
        ("spill_hits", float_of_int s.n_spill_hits);
        ("spill_writes", float_of_int s.n_spill_writes);
        ("corpus_submitted", float_of_int s.corpus_submitted);
        ("corpus_dedup", float_of_int s.corpus_dedup);
        ("corpus_done", float_of_int s.corpus_done);
        ("corpus_failed", float_of_int s.corpus_failed);
        (* store/cache effectiveness, readable fleet-wide over the wire *)
        ( "corpus_cache_hits",
          float_of_int (Obs.counter_value "corpus/cache_hit") );
        ( "corpus_cache_misses",
          float_of_int (Obs.counter_value "corpus/cache_miss") );
        ( "corpus_cache_evicted",
          float_of_int (Obs.counter_value "corpus/cache_evicted") );
        ("shard_id", float_of_int t.cfg.shard_id);
        ("uptime_s", now () -. t.started_at);
      ])

let stats = stats_snapshot

(* ------------------------------------------------------------------ *)
(* Connection handling                                                 *)
(* ------------------------------------------------------------------ *)

let handle_predict t payload timeout_ms =
  let key = P.predict_key payload ^ ":" ^ t.fingerprint in
  let arrival = now () in
  let cached =
    locked t (fun () ->
        match Lru.find t.cache key with
        | Some (cb, ct) ->
            (* Fast path: answered from the cache on the connection
               thread, no queueing, no forward pass. *)
            t.stats.n_cache_hits <- t.stats.n_cache_hits + 1;
            Obs.incr c_cache_hit;
            Some (P.Predicted { c_bottom = cb; c_top = ct; cache_hit = true })
        | None -> None)
  in
  match cached with
  | Some r -> r
  | None ->
  (* Read-through to the spill before paying for a forward pass, so a
     restarted shard serves its predecessor's hot set.  The disk read
     runs outside the state lock; a racing duplicate at worst reads the
     same file twice. *)
  match
    match t.spill with Some sp -> Spill.find sp key | None -> None
  with
  | Some (cb, ct) ->
      locked t (fun () ->
          Lru.put t.cache key (cb, ct);
          t.stats.n_cache_hits <- t.stats.n_cache_hits + 1;
          t.stats.n_spill_hits <- t.stats.n_spill_hits + 1);
      Obs.incr c_cache_hit;
      Obs.incr c_spill_hit;
      P.Predicted { c_bottom = cb; c_top = ct; cache_hit = true }
  | None ->
  let action =
    locked t (fun () ->
        match Lru.find t.cache key with
        | Some (cb, ct) ->
            (* A racing duplicate landed while we probed the spill. *)
            t.stats.n_cache_hits <- t.stats.n_cache_hits + 1;
            Obs.incr c_cache_hit;
            `Reply (P.Predicted { c_bottom = cb; c_top = ct; cache_hit = true })
        | None ->
            if t.stopping then `Reply (P.Server_error "server shutting down")
            else if Queue.length t.queue >= t.cfg.queue_capacity then begin
              t.stats.n_overloaded <- t.stats.n_overloaded + 1;
              Obs.incr c_overloaded;
              `Reply
                (P.Overloaded
                   {
                     queue_len = Queue.length t.queue;
                     capacity = t.cfg.queue_capacity;
                   })
            end
            else begin
              let p =
                {
                  payload;
                  key;
                  deadline = deadline_of arrival timeout_ms;
                  outcome = None;
                  pm = Mutex.create ();
                  pcv = Condition.create ();
                }
              in
              Queue.push p t.queue;
              Obs.set_gauge g_queue_depth (float_of_int (Queue.length t.queue));
              Condition.signal t.queue_cv;
              `Wait p
            end)
  in
  match action with `Reply r -> r | `Wait p -> await_pending p

let handle_request t (env : P.envelope) =
  locked t (fun () -> t.stats.n_requests <- t.stats.n_requests + 1);
  Obs.incr c_requests;
  match env.P.req with
  | P.Ping -> P.Pong
  | P.Stats -> P.Stats_reply (stats_snapshot t)
  | P.Predict payload -> handle_predict t payload env.P.timeout_ms
  | P.Flow_submit spec ->
      let id =
        locked t (fun () ->
            if t.stopping then -1
            else begin
              let id = t.next_job_id in
              t.next_job_id <- id + 1;
              Hashtbl.replace t.jobs id P.Job_queued;
              Queue.push (id, spec) t.flow_queue;
              t.stats.jobs_submitted <- t.stats.jobs_submitted + 1;
              Condition.signal t.flow_cv;
              id
            end)
      in
      if id < 0 then P.Server_error "server shutting down" else P.Accepted id
  | P.Flow_poll id -> (
      match locked t (fun () -> Hashtbl.find_opt t.jobs id) with
      | Some status -> P.Status status
      | None -> P.Server_error (Printf.sprintf "unknown job id %d" id))
  | P.Hello _ ->
      (* Normally consumed by the balancer; answered here too so a
         client talking straight to a shard gets the same handshake. *)
      P.Hello_reply { h_fingerprint = t.fingerprint; h_shard = t.cfg.shard_id }
  | P.Corpus_submit req ->
      let key = P.corpus_key req in
      let id =
        locked t (fun () ->
            if t.stopping then -1
            else
              match Hashtbl.find_opt t.corpus_inflight key with
              | Some id ->
                  (* identical request already queued or running: join it *)
                  t.stats.corpus_dedup <- t.stats.corpus_dedup + 1;
                  Obs.incr c_corpus_dedup;
                  id
              | None ->
                  let id = t.next_job_id in
                  t.next_job_id <- id + 1;
                  Hashtbl.replace t.corpus_jobs id P.Corpus_queued;
                  Hashtbl.replace t.corpus_inflight key id;
                  Queue.push (id, key, req) t.corpus_queue;
                  t.stats.corpus_submitted <- t.stats.corpus_submitted + 1;
                  Condition.signal t.corpus_cv;
                  id)
      in
      if id < 0 then P.Server_error "server shutting down" else P.Accepted id
  | P.Corpus_poll id -> (
      match locked t (fun () -> Hashtbl.find_opt t.corpus_jobs id) with
      | Some status -> P.Corpus_status status
      | None -> P.Server_error (Printf.sprintf "unknown corpus job id %d" id))

(* [initial] is a raw frame payload the balancer already read off this
   connection to pick the route; the handler replays it before touching
   the socket so the client's first request is never lost. *)
let handler_loop t ?initial fd =
  let finished = ref false in
  let replay = ref initial in
  let next () =
    match !replay with
    | Some payload ->
        replay := None;
        P.decode_request payload
    | None -> P.recv_request fd
  in
  (try
     while not !finished do
       match next () with
       | env -> (
           let reply =
             try handle_request t env
             with e -> P.Server_error (Printexc.to_string e)
           in
           try P.send_reply fd reply with
           | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
               (* The client went away mid-reply: a per-connection
                  error, not a daemon failure (SIGPIPE is ignored). *)
               locked t (fun () -> t.stats.n_epipe <- t.stats.n_epipe + 1);
               Obs.incr c_epipe;
               finished := true)
       | exception End_of_file -> finished := true
       | exception P.Protocol_error msg ->
           (try P.send_reply fd (P.Server_error ("protocol error: " ^ msg))
            with _ -> ());
           finished := true
       | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
         ->
           locked t (fun () -> t.stats.n_epipe <- t.stats.n_epipe + 1);
           Obs.incr c_epipe;
           finished := true
     done
   with _ -> ());
  locked t (fun () ->
      t.conns <- List.filter (fun c -> c != fd) t.conns);
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Register a connection and serve it on its own thread.  Returns false
   (and closes the fd) if the server is already stopping.  This is how
   the accept loop admits sockets and how a shard adopts fds handed
   over by the balancer. *)
let adopt_connection t ?initial fd =
  let admit =
    locked t (fun () ->
        if t.stopping then false
        else begin
          t.conns <- fd :: t.conns;
          true
        end)
  in
  if admit then
    locked t (fun () ->
        t.handler_threads <-
          Thread.create (fun () -> handler_loop t ?initial fd) ()
          :: t.handler_threads)
  else Unix.close fd;
  admit

let accept_loop t listen_fd =
  let stop = ref false in
  while not !stop do
    if locked t (fun () -> t.stopping) then stop := true
    else
      (* Block in [select] rather than [accept] — closing a socket does
         not reliably wake a thread already inside [accept].  The
         self-pipe makes [request_stop] wake this select immediately;
         no poll-period latency on either accept or shutdown. *)
      match Unix.select [ listen_fd; t.stop_rd ] [] [] (-1.0) with
      | rd, _, _ when List.memq t.stop_rd rd -> stop := true
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept ~cloexec:true listen_fd with
          | fd, _ -> ignore (adopt_connection t fd)
          | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
              ()
          | exception Unix.Unix_error (Unix.EBADF, _, _) -> stop := true)
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* Listening sockets are close-on-exec: the balancer respawns shard
   children from the process that holds them, and an inherited listener
   would keep a crashed balancer's address bound (and its clients
   EOF-less) for as long as any shard lives. *)
let bind_listen = function
  | Unix_path path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, Unix_path path)
  | Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let addr = Unix.inet_addr_of_string host in
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      let bound_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (fd, Tcp (host, bound_port))

(* A peer that disappears mid-write must surface as EPIPE on that
   connection, not as a process-killing SIGPIPE. *)
let ignore_sigpipe () =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let make ~listen ~bound cfg predictor =
  ignore_sigpipe ();
  if cfg.queue_capacity < 1 then invalid_arg "Server.start: queue_capacity < 1";
  if cfg.max_batch < 1 then invalid_arg "Server.start: max_batch < 1";
  let fingerprint = Predictor.fingerprint predictor in
  let stop_rd, stop_wr = Unix.pipe ~cloexec:true () in
  let spill = Option.map (fun dir -> Spill.create ~dir) cfg.spill_dir in
  let t =
    {
      cfg;
      predictor;
      fingerprint;
      listen;
      bound;
      stop_rd;
      stop_wr;
      spill;
      started_at = now ();
      m = Mutex.create ();
      queue_cv = Condition.create ();
      flow_cv = Condition.create ();
      corpus_cv = Condition.create ();
      queue = Queue.create ();
      cache = Lru.create ~capacity:cfg.cache_capacity;
      jobs = Hashtbl.create 16;
      flow_queue = Queue.create ();
      corpus_jobs = Hashtbl.create 16;
      corpus_queue = Queue.create ();
      corpus_inflight = Hashtbl.create 16;
      next_job_id = 0;
      stopping = false;
      conns = [];
      stats =
        {
          n_requests = 0;
          n_cache_hits = 0;
          n_cache_misses = 0;
          n_overloaded = 0;
          n_timeouts = 0;
          n_batches = 0;
          max_batch_seen = 0;
          n_epipe = 0;
          jobs_submitted = 0;
          jobs_done = 0;
          jobs_failed = 0;
          n_spill_hits = 0;
          n_spill_writes = 0;
          corpus_submitted = 0;
          corpus_dedup = 0;
          corpus_done = 0;
          corpus_failed = 0;
        };
      accept_thread = None;
      batcher_thread = None;
      flow_thread = None;
      corpus_thread = None;
      handler_threads = [];
    }
  in
  (* Eviction-to-disk hook: fires inside [Lru.put] while [t.m] is held,
     which is fine — entries are two small gcell maps and the write is
     one buffered temp file + rename. *)
  Option.iter
    (fun sp ->
      Lru.set_on_evict t.cache (fun key value ->
          if Spill.put sp key value then begin
            t.stats.n_spill_writes <- t.stats.n_spill_writes + 1;
            Obs.incr c_spill_write
          end))
    spill;
  Option.iter
    (fun listen_fd ->
      t.accept_thread <- Some (Thread.create (fun () -> accept_loop t listen_fd) ()))
    listen;
  t.batcher_thread <- Some (Thread.create (fun () -> batcher_loop t) ());
  t.flow_thread <- Some (Thread.create (fun () -> flow_loop t) ());
  t.corpus_thread <- Some (Thread.create (fun () -> corpus_loop t) ());
  t

let start cfg predictor =
  let listen_fd, bound = bind_listen cfg.address in
  make ~listen:(Some listen_fd) ~bound cfg predictor

let start_detached cfg predictor =
  make ~listen:None ~bound:cfg.address cfg predictor

let bound_addr t = t.bound
let fingerprint t = t.fingerprint

let request_stop t =
  let first =
    locked t (fun () ->
        if t.stopping then false
        else begin
          t.stopping <- true;
          Condition.broadcast t.queue_cv;
          Condition.broadcast t.flow_cv;
          Condition.broadcast t.corpus_cv;
          true
        end)
  in
  (* Self-pipe byte: wakes the accept loop's blocking select now. *)
  if first then
    try ignore (Unix.write t.stop_wr (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

let wait t =
  Option.iter Thread.join t.accept_thread;
  (* Unblock handlers parked in [recv_request] (receive side only:
     handlers waiting on a queued predict must still be able to send
     the reply once the batcher drains it below). *)
  locked t (fun () -> t.conns)
  |> List.iter (fun fd ->
         try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
         with Unix.Unix_error _ -> ());
  (* The batcher drains the remaining queue before exiting (its loop
     only stops on [stopping && queue empty]); same for the flow
     worker.  Handlers waiting on pending outcomes therefore finish. *)
  Option.iter Thread.join t.batcher_thread;
  List.iter Thread.join (locked t (fun () -> t.handler_threads));
  Option.iter Thread.join t.flow_thread;
  Option.iter Thread.join t.corpus_thread;
  (* Flush the surviving hot set so a successor process starts warm —
     eviction only spilled the overflow; this writes what's resident. *)
  Option.iter
    (fun sp ->
      locked t (fun () ->
          Lru.iter t.cache (fun key value ->
              if Spill.put sp key value then begin
                t.stats.n_spill_writes <- t.stats.n_spill_writes + 1;
                Obs.incr c_spill_write
              end)))
    t.spill;
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listen;
  (try Unix.close t.stop_rd with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_wr with Unix.Unix_error _ -> ());
  match (t.listen, t.bound) with
  | Some _, Unix_path path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ()

let stop t =
  request_stop t;
  wait t
