module Robust_io = Ppp_resilience.Robust_io
module Diagnostic = Ppp_resilience.Diagnostic
module Faults = Ppp_resilience.Faults
module Metrics = Ppp_obs.Metrics
module Jsonx = Ppp_obs.Jsonx

let m_requests = Metrics.counter "daemon.requests"
let m_shed = Metrics.counter "daemon.shed"
let m_timeouts = Metrics.counter "daemon.timeouts"
let m_restarts = Metrics.counter "daemon.worker.restarts"
let m_retries = Metrics.counter "daemon.retries"
let m_store_served = Metrics.counter "daemon.store_served"

type config = {
  socket_path : string;
  store_dir : string;
  workers : int;
  queue_limit : int;
  default_deadline_ms : int;
  chaos_ops : bool;
  seed : int;
  quiet : bool;
}

let default_config ~socket_path ~store_dir =
  {
    socket_path;
    store_dir;
    workers = 2;
    queue_limit = 16;
    default_deadline_ms = 30_000;
    chaos_ops = false;
    seed = 1;
    quiet = false;
  }

(* How long the loop will block reading one client's request, and
   writing one client's reply: a peer that dribbles bytes slower than
   this is dropped rather than allowed to stall every other client. *)
let client_io_budget = 2.0

type job = {
  env : Ops.envelope;  (* as forwarded to a worker *)
  slot : (string * string) option;  (* store kind and key of its result *)
  mutable client : Unix.file_descr option;  (* None once answered/gone *)
  deadline : float;
  mutable attempts : int;
}

type worker = {
  slot : int;
  mutable pid : int;  (* -1 while dead *)
  mutable fd : Unix.file_descr option;
  mutable job : job option;
  mutable failures : int;  (* consecutive, drives backoff *)
  mutable restart_at : float;
  mutable sessions : int * int;
      (* resident sessions and evictions, as of the worker's last reply *)
}

type t = {
  cfg : config;
  store : Store.t;
  listen_fd : Unix.file_descr;
  pool : worker array;
  queue : job Queue.t;
  rng : Faults.rng;
  started : float;
  mutable running : bool;
  mutable served : int;
  mutable restarts : int;
}

let log t fmt =
  if t.cfg.quiet then Format.ifprintf Format.err_formatter fmt
  else Format.eprintf ("pppd: " ^^ fmt ^^ "@.")

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- workers ----------------------------------------------------------- *)

(* A worker's frame is the encoded reply, then one line with the
   worker's resident session count and evictions, which [status] sums
   over the pool. The parent relays only the reply. *)
let worker_frame reply =
  let resident, evicted = Ops.session_counts () in
  Printf.sprintf "%s\n%d %d" (Ops.encode_reply reply) resident evicted

let split_worker_frame payload =
  let whole = (payload, None) in
  match String.rindex_opt payload '\n' with
  | None -> whole
  | Some i -> (
      let tail = String.sub payload (i + 1) (String.length payload - i - 1) in
      match List.map int_of_string_opt (String.split_on_char ' ' tail) with
      | [ Some resident; Some evicted ] ->
          (String.sub payload 0 i, Some (resident, evicted))
      | _ -> whole)

(* The worker child: frames in, frames out, exit on any stream error.
   Never touches the store, the listen socket or other clients. *)
let worker_main ~chaos fd =
  let rec loop () =
    match Wire.read_frame fd with
    | Error _ -> Unix._exit 0
    | Ok payload ->
        let reply =
          match Ops.decode_request payload with
          | Error msg ->
              Ops.Failed
                {
                  code = "bad-request";
                  diagnostics = [ Diagnostic.make Diagnostic.Corrupt msg ];
                }
          | Ok env -> Ops.handle ~chaos env.Ops.req
        in
        (match Wire.write_frame fd (worker_frame reply) with
        | Ok () -> loop ()
        | Error _ -> Unix._exit 0)
  in
  loop ()

(* Fds the child must not inherit open: every parent-side descriptor
   keeps a connection or a sibling worker alive if leaked into a
   long-lived child. *)
let parent_fds t =
  t.listen_fd
  :: List.concat_map
       (fun w ->
         (match w.fd with Some fd -> [ fd ] | None -> [])
         @
         match w.job with
         | Some { client = Some c; _ } -> [ c ]
         | _ -> [])
       (Array.to_list t.pool)

let spawn_worker t w =
  let child_end, parent_end =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  match Unix.fork () with
  | 0 ->
      close_quiet parent_end;
      List.iter close_quiet (parent_fds t);
      worker_main ~chaos:t.cfg.chaos_ops child_end
  | pid ->
      close_quiet child_end;
      w.pid <- pid;
      w.fd <- Some parent_end;
      w.job <- None;
      w.sessions <- (0, 0);
      w.restart_at <- 0.;
      log t "worker %d up (pid %d)" w.slot pid

(* Exponential backoff with seeded jitter: 50ms * 2^failures, capped at
   ~3.2s, plus up to 50ms of RNG jitter so a crash-looping pool does not
   restart in lockstep. *)
let schedule_restart t w =
  w.pid <- -1;
  (match w.fd with Some fd -> close_quiet fd | None -> ());
  w.fd <- None;
  w.failures <- w.failures + 1;
  let backoff =
    0.05 *. Float.of_int (1 lsl min 6 (w.failures - 1))
    +. (Float.of_int (Faults.int t.rng 50) /. 1000.)
  in
  w.restart_at <- Unix.gettimeofday () +. backoff;
  t.restarts <- t.restarts + 1;
  Metrics.incr m_restarts;
  log t "worker %d down, restart in %.0fms (failure %d)" w.slot
    (1000. *. backoff) w.failures

let kill_worker t w =
  if w.pid > 0 then begin
    Robust_io.kill_quiet w.pid Sys.sigkill;
    ignore (try Unix.waitpid [] w.pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0));
    schedule_restart t w
  end

(* ---- replying to clients ----------------------------------------------- *)

(* [encoded] is a whole encoded reply: a worker's or the store's bytes
   are relayed as they are. *)
let answer t job encoded =
  match job.client with
  | None -> ()
  | Some fd ->
      job.client <- None;
      let deadline = Unix.gettimeofday () +. client_io_budget in
      (match Wire.write_frame ~deadline fd encoded with
      | Ok () -> ()
      | Error _ -> log t "client went away before the reply");
      close_quiet fd

let answer_reply t job reply = answer t job (Ops.encode_reply reply)

let answer_failed t job code msg kind =
  answer_reply t job
    (Ops.Failed { code; diagnostics = [ Diagnostic.make kind msg ] })

(* ---- store serving ----------------------------------------------------- *)

(* Sampling parameters are part of a collect's identity: a sampled dump
   must never be served where an exact one was asked for (or vice
   versa). The unsampled key keeps its historical shape, so an older
   daemon's entry is found, and replaced once (see [serve_from_store]). *)
let collect_key ~bench ~scale ~sample_rate ~burst ~sample_seed =
  if sample_rate <= 1 then Printf.sprintf "%s/scale=%d" bench scale
  else
    Printf.sprintf "%s/scale=%d/rate=%d/burst=%d/seed=%d" bench scale
      sample_rate burst sample_seed

(* Each input is keyed by its MD5, as an [Opt]'s profile dump is: a
   CRC-32 is linear, so four chosen bytes in a dump's leading comment
   give it any other dump's CRC. A plain merge is order-independent, so
   its key sorts the digests; a decayed merge weights inputs by age, so
   its key keeps their order and carries the decay. *)
let merge_key ~decay dumps =
  let digests = List.map (fun d -> Digest.to_hex (Digest.string d)) dumps in
  if decay >= 1.0 then List.sort compare digests |> String.concat "+"
  else Printf.sprintf "decay=%h+" decay ^ String.concat "+" digests

(* An [Opt]'s identity: the request as its client sent it, with the
   client-specific fields, the ignored [plans] member and the profile
   dump zeroed, then the digest of the dump. So an identical request
   hits from its second send on, and the key stays the size of the
   program: a dump (256 KB for crafty) travels only to a worker. *)
let opt_key env =
  let env, profile =
    match env.Ops.req with
    | Ops.Opt o ->
        ( { env with Ops.req = Ops.Opt { o with profile = None; plans = None } },
          match o.profile with
          | Some dump -> " profile-md5=" ^ Digest.to_hex (Digest.string dump)
          | None -> "" )
    | _ -> (env, "")
  in
  Ops.encode_request { env with Ops.id = 0; deadline_ms = 0 } ^ profile

(* Where a request's result lives in the store, if anywhere. *)
let store_slot (env : Ops.envelope) =
  match env.Ops.req with
  | Ops.Collect { bench; scale; sample_rate; burst; sample_seed } ->
      Some
        ("profile", collect_key ~bench ~scale ~sample_rate ~burst ~sample_seed)
  | Ops.Merge { dumps; decay } -> Some ("merge", merge_key ~decay dumps)
  | Ops.Opt _ -> Some ("opt", opt_key env)
  | _ -> None

(* A store hit short-circuits the worker pool entirely: an entry is the
   reply a worker encoded, relayed with [served_from_store] spliced in
   ([Store.get] has checked its CRC). An entry that is no whole reply —
   an older store's bare profile or merged dump — misses, and the
   recomputed reply overwrites it. *)
let serve_from_store t (kind, key) =
  Option.bind (Store.get t.store ~kind ~key) Ops.mark_served

let put_logged t ~kind ~key value =
  match Store.put t.store ~kind ~key value with
  | Ok () -> ()
  | Error d -> log t "store put failed: %a" Diagnostic.pp d

(* Persist a successful reply: the worker's encoded bytes [payload]
   under the request's slot. *)
let absorb_reply t (job : job) payload reply =
  match (job.slot, reply) with
  | Some (kind, key), Ops.Okay _ -> put_logged t ~kind ~key payload
  | _ -> ()

(* ---- parent-inline requests -------------------------------------------- *)

let status_reply t =
  let workers_up =
    Array.fold_left (fun n w -> if w.pid > 0 then n + 1 else n) 0 t.pool
  in
  let resident, evictions =
    Array.fold_left
      (fun (r, e) w ->
        if w.pid > 0 then (r + fst w.sessions, e + snd w.sessions) else (r, e))
      (0, 0) t.pool
  in
  Ops.Okay
    {
      body = "ok";
      meta =
        [ ("pid", Jsonx.Int (Unix.getpid ()));
          ("uptime_s", Jsonx.Float (Unix.gettimeofday () -. t.started));
          ("workers", Jsonx.Int (Array.length t.pool));
          ("workers_up", Jsonx.Int workers_up);
          ("restarts", Jsonx.Int t.restarts);
          ("served", Jsonx.Int t.served);
          ("queued", Jsonx.Int (Queue.length t.queue));
          ("store_entries", Jsonx.Int (List.length (Store.entries t.store)));
          ("store_quarantined", Jsonx.Int (Store.quarantined t.store));
          ("sessions_resident", Jsonx.Int resident);
          ("session_evictions", Jsonx.Int evictions) ];
    }

(* ---- dispatch ---------------------------------------------------------- *)

let idle_worker t =
  Array.fold_left
    (fun acc w ->
      match acc with
      | Some _ -> acc
      | None -> if w.pid > 0 && w.job = None then Some w else None)
    None t.pool

let dispatch t =
  let rec go () =
    if not (Queue.is_empty t.queue) then
      match idle_worker t with
      | None -> ()
      | Some w -> (
          let job = Queue.pop t.queue in
          if job.client = None then go () (* already answered (timed out) *)
          else
            let payload = Ops.encode_request job.env in
            match
              Wire.write_frame ~deadline:(Unix.gettimeofday () +. client_io_budget)
                (Option.get w.fd) payload
            with
            | Ok () ->
                w.job <- Some job;
                go ()
            | Error _ ->
                (* Worker dead before it even took the job: requeue the
                   job (no attempt consumed) and recycle the slot. *)
                Queue.push job t.queue;
                kill_worker t w;
                go ())
  in
  go ()

let handle_worker_loss t w why =
  (match w.job with
  | Some job ->
      w.job <- None;
      if
        job.attempts = 0
        && Ops.is_idempotent job.env.Ops.req
        && Unix.gettimeofday () < job.deadline
      then begin
        job.attempts <- job.attempts + 1;
        Metrics.incr m_retries;
        log t "retrying request %d after worker loss" job.env.Ops.id;
        Queue.push job t.queue
      end
      else
        answer_failed t job "worker-lost"
        (Printf.sprintf "worker serving the request died (%s)" why)
          Diagnostic.Shard_lost
  | None -> ());
  schedule_restart t w

(* A worker fd became readable: either a reply frame or EOF/garbage. *)
let worker_event t w =
  match w.fd with
  | None -> ()
  | Some fd -> (
      match Wire.read_frame ~deadline:(Unix.gettimeofday () +. client_io_budget) fd with
      | Ok frame -> (
          match w.job with
          | None ->
              (* A frame with no job in flight is a protocol violation. *)
              kill_worker t w
          | Some job -> (
              w.job <- None;
              w.failures <- 0;
              let payload, sessions = split_worker_frame frame in
              Option.iter (fun s -> w.sessions <- s) sessions;
              (* Decoded only to check it and to tell an [Okay] reply,
                 which the store keeps; the client gets the worker's
                 bytes. *)
              match Ops.decode_reply payload with
              | Ok reply ->
                  absorb_reply t job payload reply;
                  t.served <- t.served + 1;
                  answer t job payload
              | Error msg ->
                  answer_failed t job "worker-lost"
                    (Printf.sprintf "worker reply unparsable: %s" msg)
                    Diagnostic.Corrupt))
      | Error Wire.Timeout ->
          (* Readable but not a whole frame within the budget: treat as
             a stall; the deadline sweep owns real timeouts. *)
          ()
      | Error (Wire.Closed | Wire.Corrupt _) ->
          (match Robust_io.waitpid_nohang w.pid with _ -> ());
          handle_worker_loss t w "connection lost")

(* Reap exited workers even when no frame tells us (e.g. an idle worker
   SIGKILLed by the chaos harness). *)
let reap t =
  Array.iter
    (fun w ->
      if w.pid > 0 then
        match Robust_io.waitpid_nohang w.pid with
        | Some _ -> handle_worker_loss t w "process exited"
        | None -> ())
    t.pool

(* SIGKILL any worker whose job overran its deadline. *)
let sweep_deadlines t =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun w ->
      match w.job with
      | Some job when now > job.deadline ->
          w.job <- None;
          Metrics.incr m_timeouts;
          answer_failed t job "timeout"
            (Printf.sprintf "request exceeded its %dms deadline"
               (if job.env.Ops.deadline_ms > 0 then job.env.Ops.deadline_ms
                else t.cfg.default_deadline_ms))
            Diagnostic.Deadline_exceeded;
          log t "request %d overran its deadline; killing worker %d"
            job.env.Ops.id w.slot;
          kill_worker t w
      | _ -> ())
    t.pool;
  (* Shed queued jobs that expired before any worker freed up. *)
  let requeue = Queue.create () in
  Queue.iter
    (fun job ->
      if job.client <> None then
        if now > job.deadline then begin
          Metrics.incr m_timeouts;
          answer_failed t job "timeout" "request expired while queued"
            Diagnostic.Deadline_exceeded
        end
        else Queue.push job requeue)
    t.queue;
  Queue.clear t.queue;
  Queue.transfer requeue t.queue

let restart_due t =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun w -> if w.pid <= 0 && now >= w.restart_at then spawn_worker t w)
    t.pool

(* ---- accepting --------------------------------------------------------- *)

let accept_client t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
      ()
  | client, _ -> (
      let io_deadline = Unix.gettimeofday () +. client_io_budget in
      match Wire.read_frame ~deadline:io_deadline client with
      | Error e ->
          log t "dropping client: %s" (Wire.error_message e);
          close_quiet client
      | Ok payload -> (
          Metrics.incr m_requests;
          match Ops.decode_request payload with
          | Error msg ->
              let job =
                { env = { Ops.id = 0; deadline_ms = 0; req = Ops.Ping };
                  slot = None; client = Some client; deadline = io_deadline;
                  attempts = 0 }
              in
              answer_failed t job "bad-request" msg Diagnostic.Corrupt
          | Ok env -> (
              let budget_ms =
                if env.Ops.deadline_ms > 0 then env.Ops.deadline_ms
                else t.cfg.default_deadline_ms
              in
              let deadline =
                Unix.gettimeofday () +. (Float.of_int budget_ms /. 1000.)
              in
              let job =
                { env; slot = None; client = Some client; deadline; attempts = 0 }
              in
              match env.Ops.req with
              | Ops.Ping ->
                  t.served <- t.served + 1;
                  answer_reply t job (Ops.Okay { body = "pong"; meta = [] })
              | Ops.Status ->
                  t.served <- t.served + 1;
                  answer_reply t job (status_reply t)
              | Ops.Shutdown ->
                  t.served <- t.served + 1;
                  answer_reply t job (Ops.Okay { body = "bye"; meta = [] });
                  t.running <- false
              | _ -> (
                  let slot = store_slot env in
                  match Option.bind slot (serve_from_store t) with
                  | Some encoded ->
                      t.served <- t.served + 1;
                      Metrics.incr m_store_served;
                      answer t job encoded
                  | None ->
                      let job = { job with slot } in
                      let in_flight =
                        Array.fold_left
                          (fun n w -> if w.job <> None then n + 1 else n)
                          0 t.pool
                      in
                      if
                        idle_worker t = None
                        && Queue.length t.queue >= t.cfg.queue_limit
                      then begin
                        Metrics.incr m_shed;
                        log t "shedding request %d (queue %d, in flight %d)"
                          env.Ops.id (Queue.length t.queue) in_flight;
                        answer_failed t job "shed"
                          "daemon is saturated; run in-process instead"
                          Diagnostic.Degraded
                      end
                      else begin
                        Queue.push job t.queue;
                        dispatch t
                      end))))

(* ---- main loop --------------------------------------------------------- *)

let select_step t =
  let worker_fds =
    Array.to_list t.pool
    |> List.filter_map (fun w -> if w.pid > 0 then w.fd else None)
  in
  let now = Unix.gettimeofday () in
  (* Wake for the earliest deadline or restart, else tick at 250ms. *)
  let horizon =
    Array.fold_left
      (fun h w ->
        let h =
          match w.job with Some j -> Float.min h j.deadline | None -> h
        in
        if w.pid <= 0 then Float.min h w.restart_at else h)
      (now +. 0.25) t.pool
  in
  let timeout = Float.max 0.01 (horizon -. now) in
  match Unix.select (t.listen_fd :: worker_fds) [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | readable, _, _ -> readable

let run cfg =
  let cfg = { cfg with workers = max 1 cfg.workers } in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let store, reopen_diags = Store.open_store ~dir:cfg.store_dir in
  (* A stale socket from a previous daemon that crashed: safe to remove,
     nothing can be listening on it once bind would fail. *)
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 16;
  let pool =
    Array.init cfg.workers (fun slot ->
        {
          slot;
          pid = -1;
          fd = None;
          job = None;
          failures = 0;
          restart_at = 0.;
          sessions = (0, 0);
        })
  in
  let t =
    {
      cfg;
      store;
      listen_fd;
      pool;
      queue = Queue.create ();
      rng = Faults.rng ~seed:cfg.seed;
      started = Unix.gettimeofday ();
      running = true;
      served = 0;
      restarts = 0;
    }
  in
  List.iter (fun d -> log t "reopen: %a" Diagnostic.pp d) reopen_diags;
  let stop _ = t.running <- false in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle stop) in
  Array.iter (fun w -> spawn_worker t w) t.pool;
  log t "listening on %s (store %s, %d workers, %d entries, %d quarantined)"
    cfg.socket_path cfg.store_dir cfg.workers
    (List.length (Store.entries t.store))
    (Store.quarantined t.store);
  while t.running do
    let readable = select_step t in
    if List.memq t.listen_fd readable then accept_client t;
    Array.iter
      (fun w ->
        match w.fd with
        | Some fd when List.memq fd readable -> worker_event t w
        | _ -> ())
      t.pool;
    reap t;
    sweep_deadlines t;
    restart_due t;
    dispatch t;
    List.iter (fun d -> log t "store: %a" Diagnostic.pp d)
      (Store.drain_diagnostics t.store)
  done;
  (* Orderly shutdown: refuse new clients, fail what is still queued,
     terminate workers, release the socket and the store. *)
  close_quiet t.listen_fd;
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  Queue.iter
    (fun job ->
      answer_failed t job "shed" "daemon is shutting down" Diagnostic.Degraded)
    t.queue;
  Array.iter
    (fun w ->
      (match w.job with
      | Some job ->
          answer_failed t job "shed" "daemon is shutting down" Diagnostic.Degraded
      | None -> ());
      if w.pid > 0 then begin
        (match w.fd with Some fd -> close_quiet fd | None -> ());
        Robust_io.kill_quiet w.pid Sys.sigterm;
        match Robust_io.waitpid_nohang w.pid with
        | Some _ -> ()
        | None ->
            Robust_io.kill_quiet w.pid Sys.sigkill;
            ignore
              (try Unix.waitpid [] w.pid
               with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
      end)
    t.pool;
  Store.close t.store;
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int;
  log t "stopped after serving %d requests (%d restarts)" t.served t.restarts
