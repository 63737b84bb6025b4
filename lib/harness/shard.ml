module Diagnostic = Ppp_resilience.Diagnostic
module Robust_io = Ppp_resilience.Robust_io
module Profile_io = Ppp_profile.Profile_io
module Metrics = Ppp_obs.Metrics
module Spec = Ppp_workloads.Spec
module Interp = Ppp_interp.Interp
module Sampling = Ppp_interp.Sampling
module Instrument = Ppp_core.Instrument
module Config = Ppp_core.Config

(* SplitMix-style finalizer over the pool seed and the item index only:
   the same item gets the same seed at every [-j] level. The constants
   fit in 62 bits; multiplication overflow wraps, which is fine for
   mixing. *)
let derive_seed base i =
  let z = (base lxor 0x2545F4914F6CDD1D) + ((i + 1) * 0x106689D45497239B) in
  let z = (z lxor (z lsr 29)) * 0x16A3B36B4E1B3F9 in
  let z = z lxor (z lsr 32) in
  z land max_int

(* Everything buffered in this process would otherwise be replayed by
   each child's exit path; [Unix._exit] avoids the replay, and flushing
   first keeps the parent's own output ordered around the fork. *)
let flush_std () =
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  flush stdout;
  flush stderr

let silence_stdout () =
  try
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 devnull Unix.stdout;
    Unix.close devnull
  with Unix.Unix_error _ -> ()

let lost_diag ~worker ~index ~total why =
  Diagnostic.errorf ~line:index Diagnostic.Shard_lost
    "worker %d %s before delivering item %d of %d" worker why index total

(* An item no worker ever held names no worker: which one died last
   depends on timing. *)
let unrun_diag ~index ~total =
  Diagnostic.errorf ~line:index Diagnostic.Shard_lost
    "item %d of %d was never run: no worker left" index total

(* One worker: the pipe its results come back on, and the pipe it reads
   its next item index from (its stdin). [buf] holds the record being
   read: first its Marshal header alone, then, once the header gives the
   record's size, the whole record. [have] bytes of it have arrived. *)
type stream = {
  worker : int;
  pid : int;
  fd : Unix.file_descr;
  cmd : Unix.file_descr;
  mutable cmd_open : bool;
  mutable held : int; (* the index handed out and not yet delivered, or -1 *)
  mutable buf : bytes;
  mutable have : int;
}

let header_only () = Bytes.create Marshal.header_size
let index_bytes = 8
let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One read from a stream that [select] found readable, never past the
   end of the record being read, so every record is allocated once at
   its exact size. [`Eof] covers both a cleanly closed pipe and a record
   torn by a mid-write crash: either way the stream is over, and the
   item the worker held is accounted for by the caller. *)
let pump s deliver =
  match Unix.read s.fd s.buf s.have (Bytes.length s.buf - s.have) with
  | 0 -> `Eof
  | n when s.have + n < Bytes.length s.buf ->
      s.have <- s.have + n;
      `More
  | n -> (
      s.have <- s.have + n;
      if s.have = Marshal.header_size then
        match Marshal.data_size s.buf 0 with
        | exception Failure _ -> `Eof
        | data_len ->
            let record = Bytes.create (Marshal.header_size + data_len) in
            Bytes.blit s.buf 0 record 0 Marshal.header_size;
            s.buf <- record;
            `More
      else
        match Marshal.from_bytes s.buf 0 with
        | exception Failure _ -> `Eof
        | r ->
            deliver r;
            s.buf <- header_only ();
            s.have <- 0;
            `More)
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `More
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let exit_reason pid =
  match waitpid_retry pid with
  | _, Unix.WEXITED 0 -> "died mid-stream"
  | _, Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | _, Unix.WSIGNALED s -> Printf.sprintf "was killed by signal %d" s
  | _, Unix.WSTOPPED s -> Printf.sprintf "was stopped by signal %d" s
  | exception Unix.Unix_error _ -> "could not be reaped"

(* Hand [idx] to a worker. The pipe is empty (a worker asks for its next
   index only after delivering), so the 8 bytes never block; a worker
   that already exited refuses them with [`Closed], and SIGPIPE is
   ignored meanwhile so its death cannot kill the parent. *)
let send_index fd idx =
  let b = Bytes.create index_bytes in
  Bytes.set_int64_le b 0 (Int64.of_int idx);
  let old = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe old)
    (fun () -> Robust_io.write_all fd b 0 index_bytes)

(* The worker's loop: read an index from stdin, apply [f], write the
   result; end of input means no item is left. *)
let worker_loop ~seed ~f items wr =
  let b = Bytes.create index_bytes in
  let rec loop () =
    match Robust_io.really_read Unix.stdin b 0 index_bytes with
    | `Eof | `Timeout -> ()
    | `Ok () -> (
        let idx = Int64.to_int (Bytes.get_int64_le b 0) in
        let r =
          try Ok (f ~seed:(derive_seed seed idx) items.(idx))
          with e -> Error (Printexc.to_string e)
        in
        (* One EINTR-safe write per item: a signal landing mid-write
           must not tear the stream. Without sharing, marshalling keeps
           no table of every block it visits: for the profile of a large
           program (crafty at scale 16) that table was the worker's peak
           memory. *)
        match
          Robust_io.write_string wr
            (Marshal.to_string (idx, r) [ Marshal.No_sharing ])
        with
        | `Ok -> loop ()
        | `Closed | `Timeout -> ())
  in
  try loop () with Unix.Unix_error _ -> ()

let map (type b) ~jobs ?(seed = 0) ?timeout_s ~(f : seed:int -> 'a -> b) items
    : (b, Diagnostic.t) result list =
  let items = Array.of_list items in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let jobs = max 1 (min jobs n) in
    (* The budget runs from here for every worker alike. *)
    let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s in
    flush_std ();
    let streams = ref [] in
    for w = 0 to jobs - 1 do
      let rd, wr = Unix.pipe () in
      let cmd_rd, cmd_wr = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
          (* Keep no other worker's pipe ends: a worker holding a copy
             would keep that worker's index pipe open after the parent
             closes it. *)
          List.iter
            (fun s ->
              close_quiet s.fd;
              close_quiet s.cmd)
            !streams;
          Unix.close rd;
          Unix.close cmd_wr;
          Unix.dup2 cmd_rd Unix.stdin;
          Unix.close cmd_rd;
          silence_stdout ();
          (match worker_loop ~seed ~f items wr with
          | () -> Unix._exit 0
          | exception _ -> Unix._exit 2)
      | pid ->
          Unix.close wr;
          Unix.close cmd_rd;
          streams :=
            !streams
            @ [
                {
                  worker = w;
                  pid;
                  fd = rd;
                  cmd = cmd_wr;
                  cmd_open = true;
                  held = -1;
                  buf = header_only ();
                  have = 0;
                };
              ]
    done;
    let results : (b, Diagnostic.t) result option array = Array.make n None in
    let deliver s ((idx, r) : int * (b, string) result) =
      s.held <- -1;
      results.(idx) <-
        Some
          (Result.map_error
             (fun msg ->
               Diagnostic.errorf ~line:idx Diagnostic.Shard_lost
                 "shard job %d raised: %s" idx msg)
             r)
    in
    (* Indices never handed out (or refused by a worker that had already
       exited), smallest first. *)
    let queue = ref (List.init n Fun.id) in
    let live = ref !streams in
    let close_cmd s =
      if s.cmd_open then begin
        s.cmd_open <- false;
        close_quiet s.cmd
      end
    in
    let hand s =
      if s.cmd_open && s.held < 0 then
        match !queue with
        | [] -> ()
        | idx :: rest -> (
            queue := rest;
            match send_index s.cmd idx with
            | `Ok -> s.held <- idx
            | `Closed | `Timeout ->
                queue := idx :: !queue;
                close_cmd s)
    in
    (* Give every idle worker the next index. Once none is left and no
       worker holds one, close the index pipes so the workers exit. *)
    let settle () =
      List.iter hand !live;
      if !queue = [] && List.for_all (fun s -> s.held < 0) !live then
        List.iter close_cmd !live
    in
    (* A reaped worker is gone: it loses the item it held. When it was
       the last one, every item never handed out is lost too. *)
    let bury s why =
      close_cmd s;
      if s.held >= 0 then
        results.(s.held) <-
          Some (Error (lost_diag ~worker:s.worker ~index:s.held ~total:n why));
      s.held <- -1;
      live := List.filter (fun x -> x != s) !live;
      if !live = [] then begin
        List.iter
          (fun idx ->
            results.(idx) <- Some (Error (unrun_diag ~index:idx ~total:n)))
          !queue;
        queue := []
      end
    in
    settle ();
    (* Drain every live worker from one [select], taking records as they
       arrive: a worker whose result outgrows the pipe's capacity would
       otherwise block in [write] until the parent got round to it. A
       worker still running when the budget runs out is killed; the
       items delivered are kept. *)
    while !live <> [] do
      let left =
        match deadline with
        | None -> -1. (* select: wait forever *)
        | Some d -> d -. Unix.gettimeofday ()
      in
      if deadline <> None && left <= 0. then begin
        let why =
          Printf.sprintf "exceeded its %gs wall-clock budget"
            (Option.get timeout_s)
        in
        List.iter
          (fun s ->
            Robust_io.kill_quiet s.pid Sys.sigkill;
            close_quiet s.fd;
            ignore (waitpid_retry s.pid);
            bury s why)
          !live
      end
      else
        match Unix.select (List.map (fun s -> s.fd) !live) [] [] left with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ ->
            List.iter
              (fun s ->
                if List.memq s.fd ready then
                  match pump s (deliver s) with
                  | `More -> if s.held < 0 then settle ()
                  | `Eof ->
                      (* Close before reaping: a worker still writing
                         after a torn record then fails its write and
                         exits. *)
                      close_quiet s.fd;
                      bury s (exit_reason s.pid);
                      settle ())
              !live
    done;
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false (* all buried above *))
         results)
  end

type collected = {
  raw : Profile_io.Raw.t;
  shards : (string * Profile_io.Raw.t) list;
  shard_metrics : (string * Metrics.snapshot) list;
  metrics : Metrics.snapshot;
  lost : Diagnostic.t list;
}

(* Bursty sampled collection of one program: paths come from PPP
   instrumentation run under the sampling controller, not from the
   engine's exact tracer. A cheap edge-only run supplies the
   instrumenter's self advice and the dump's exact edge profile (the
   sampled run would count the same edges, so it counts none); the dump
   adds inverse-rate path estimates, so sampled dumps merge uniformly
   with unsampled ones. *)
let collect_sampled ?cache ?engine ~spec p =
  let advice =
    Interp.run ?cache ?engine
      ~config:{ Interp.default_config with trace_paths = false }
      p
  in
  let ep = Option.get advice.Interp.edge_profile in
  let inst = Instrument.instrument p ep Config.ppp in
  let o =
    Interp.run ?cache ?engine
      ~config:
        {
          Interp.default_config with
          collect_edges = false;
          trace_paths = false;
          instrumentation = Some inst.Instrument.rt;
          sampling = Some spec;
        }
      p
  in
  let paths =
    Instrument.decoded_profile ~denom:spec.Sampling.denom inst
      o.Interp.instr_state p
  in
  Profile_io.Raw.of_program ~edges:ep ~paths p

let collect_program ?cache ?engine ?sampling p =
  match sampling with
  | None ->
      let o = Interp.run ?cache ?engine p in
      Profile_io.Raw.of_program ?edges:o.Interp.edge_profile
        ?paths:o.Interp.path_profile p
  | Some spec -> collect_sampled ?cache ?engine ~spec p

let collect_one ?prebuilt ?engine ?sampling ~seed ~scale ~metrics
    (b : Spec.bench) =
  if metrics then begin
    Metrics.set_enabled true;
    Metrics.reset ()
  end;
  let p, cache =
    match prebuilt with
    | Some (p, session) -> (p, Ppp_session.Session.lower_cache session)
    | None -> (b.Spec.build ~scale, None)
  in
  let sampling =
    Option.map
      (fun (t : Sampling.spec) ->
        Sampling.spec ~burst:t.Sampling.burst ~seed ~denom:t.Sampling.denom ())
      sampling
  in
  let raw = collect_program ?cache ?engine ?sampling p in
  let snap = if metrics then Metrics.snapshot () else [] in
  (b.Spec.bench_name, raw, snap)

let collect_workloads ~jobs ?(scale = 1) ?(metrics = false) ?(warm = false)
    ?engine ?sampling ?timeout_s benches =
  (* With [warm], the parent builds every workload and fills a session
     (analyses + structural lowering) before the pool forks, so workers
     inherit the warm artifacts copy-on-write and only execute. Workers
     never write back, so sharing is safe; collection output is
     byte-identical either way. *)
  let items =
    List.map
      (fun (b : Spec.bench) ->
        if warm then begin
          let p = b.Spec.build ~scale in
          let session =
            Ppp_session.Session.create ~name:b.Spec.bench_name ()
          in
          Ppp_session.Session.warm session p;
          (b, Some (p, session))
        end
        else (b, None))
      benches
  in
  let base_seed =
    match sampling with Some s -> s.Sampling.seed | None -> 0
  in
  let results =
    map ~jobs ~seed:base_seed ?timeout_s
      ~f:(fun ~seed (b, prebuilt) ->
        collect_one ?prebuilt ?engine ?sampling ~seed ~scale ~metrics b)
      items
  in
  let shards = ref [] and shard_metrics = ref [] and lost = ref [] in
  let inputs = ref [] in
  List.iter
    (function
      | Ok (name, raw, snap) ->
          shards := (name, raw) :: !shards;
          if metrics then shard_metrics := (name, snap) :: !shard_metrics;
          (* Prefix routine names with the workload so the 18 programs
             merge into one namespace without collisions. *)
          inputs := Profile_io.Raw.rename (fun r -> name ^ "/" ^ r) raw :: !inputs
      | Error d -> lost := d :: !lost)
    results;
  {
    raw = Profile_io.Raw.merge (List.rev !inputs);
    shards = List.rev !shards;
    shard_metrics = List.rev !shard_metrics;
    metrics = Metrics.merge (List.rev_map snd !shard_metrics);
    lost = List.rev !lost;
  }
