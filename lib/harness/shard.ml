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

(* One marshaled record from a worker pipe, assembled from raw reads so
   the parent survives EINTR and short reads and can put a wall-clock
   deadline on a stalled worker (a buffered [Marshal.from_channel] can
   do neither). [`Eof] covers both a cleanly closed pipe and a record
   torn by a mid-write crash — either way the stream is over and the
   per-item sweep accounts for what never arrived. *)
let read_record (type b) ?deadline fd :
    [ `Record of int * (b, string) result | `Eof | `Timeout ] =
  let hdr = Bytes.create Marshal.header_size in
  match Robust_io.really_read ?deadline fd hdr 0 Marshal.header_size with
  | `Eof -> `Eof
  | `Timeout -> `Timeout
  | `Ok () -> (
      match Marshal.data_size hdr 0 with
      | exception Failure _ -> `Eof (* corrupt header: torn stream *)
      | data_len -> (
          let buf = Bytes.create (Marshal.header_size + data_len) in
          Bytes.blit hdr 0 buf 0 Marshal.header_size;
          match
            Robust_io.really_read ?deadline fd buf Marshal.header_size data_len
          with
          | `Eof -> `Eof
          | `Timeout -> `Timeout
          | `Ok () -> (
              match (Marshal.from_bytes buf 0 : int * (b, string) result) with
              | r -> `Record r
              | exception Failure _ -> `Eof)))

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let map (type b) ~jobs ?(seed = 0) ?timeout_s ~(f : seed:int -> 'a -> b) items
    : (b, Diagnostic.t) result list =
  let items = Array.of_list items in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let jobs = max 1 (min jobs n) in
    flush_std ();
    let workers =
      Array.init jobs (fun w ->
          let rd, wr = Unix.pipe () in
          match Unix.fork () with
          | 0 ->
              Unix.close rd;
              silence_stdout ();
              let i = ref w in
              (try
                 while !i < n do
                   let idx = !i in
                   let r : (b, string) result =
                     try Ok (f ~seed:(derive_seed seed idx) items.(idx))
                     with e -> Error (Printexc.to_string e)
                   in
                   (* One EINTR-safe write per item: results already
                      computed must survive a crash on a later item, and
                      a signal landing mid-write must not tear the
                      stream. *)
                   (match
                      Robust_io.write_string wr (Marshal.to_string (idx, r) [])
                    with
                   | `Ok -> ()
                   | `Closed | `Timeout -> raise Exit);
                   i := !i + jobs
                 done
               with Exit -> ());
              Unix._exit 0
          | pid ->
              Unix.close wr;
              (pid, rd))
    in
    let results : (b, Diagnostic.t) result option array = Array.make n None in
    Array.iteri
      (fun w (pid, rd) ->
        (* Drain this worker's stream to EOF before waiting (the parent
           is the only reader and always consumes, so no deadlock). The
           optional wall-clock budget is per worker, measured from the
           moment its drain starts; a worker that blows it is killed and
           its undelivered items become located diagnostics instead of
           blocking the merge forever. *)
        let deadline =
          Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s
        in
        let timed_out = ref false in
        let streaming = ref true in
        while !streaming do
          match read_record ?deadline rd with
          | `Record (idx, Ok v) -> results.(idx) <- Some (Ok v)
          | `Record (idx, Error msg) ->
              results.(idx) <-
                Some
                  (Error
                     (Diagnostic.errorf ~line:idx Diagnostic.Shard_lost
                        "shard job %d raised: %s" idx msg))
          | `Eof -> streaming := false
          | `Timeout ->
              timed_out := true;
              Robust_io.kill_quiet pid Sys.sigkill;
              streaming := false
        done;
        (try Unix.close rd with Unix.Unix_error _ -> ());
        let why =
          if !timed_out then
            Printf.sprintf "exceeded its %gs wall-clock budget"
              (Option.get timeout_s)
          else
            match waitpid_retry pid with
            | _, Unix.WEXITED 0 -> "died mid-stream"
            | _, Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
            | _, Unix.WSIGNALED s -> Printf.sprintf "was killed by signal %d" s
            | _, Unix.WSTOPPED s -> Printf.sprintf "was stopped by signal %d" s
            | exception Unix.Unix_error _ -> "could not be reaped"
        in
        if !timed_out then ignore (waitpid_retry pid);
        let i = ref w in
        while !i < n do
          (match results.(!i) with
          | Some _ -> ()
          | None ->
              results.(!i) <-
                Some (Error (lost_diag ~worker:w ~index:!i ~total:n why)));
          i := !i + jobs
        done)
      workers;
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false (* all swept above *))
         results)
  end

type collected = {
  raw : Profile_io.Raw.t;
  shards : (string * string) list;
  shard_metrics : (string * Metrics.snapshot) list;
  metrics : Metrics.snapshot;
  lost : Diagnostic.t list;
}

(* Bursty sampled collection of one program: paths come from PPP
   instrumentation run under the sampling controller, not from the
   engine's exact tracer. A cheap edge-only run supplies the
   instrumenter's self advice; the dump then carries the exact edge
   profile plus inverse-rate path estimates, so sampled dumps merge
   uniformly with unsampled ones. *)
let collect_sampled ?cache ~spec p =
  let advice =
    Interp.run ?cache
      ~config:{ Interp.default_config with trace_paths = false }
      p
  in
  let ep = Option.get advice.Interp.edge_profile in
  let inst = Instrument.instrument p ep Config.ppp in
  let o =
    Interp.run ?cache
      ~config:
        {
          Interp.default_config with
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
  Profile_io.Raw.of_program ?edges:o.Interp.edge_profile ~paths p

let collect_one ?prebuilt ?sampling ~seed ~scale ~metrics (b : Spec.bench) =
  if metrics then begin
    Metrics.set_enabled true;
    Metrics.reset ()
  end;
  let p, cache =
    match prebuilt with
    | Some (p, session) -> (p, Ppp_session.Session.lower_cache session)
    | None -> (b.Spec.build ~scale, None)
  in
  let raw =
    match sampling with
    | None ->
        let o = Interp.run ?cache p in
        Profile_io.Raw.of_program ?edges:o.Interp.edge_profile
          ?paths:o.Interp.path_profile p
    | Some template ->
        let spec =
          Sampling.spec ~burst:template.Sampling.burst ~seed
            ~denom:template.Sampling.denom ()
        in
        collect_sampled ?cache ~spec p
  in
  let snap = if metrics then Metrics.snapshot () else [] in
  (b.Spec.bench_name, Profile_io.Raw.to_string raw, snap)

let collect_workloads ~jobs ?(scale = 1) ?(metrics = false) ?(warm = false)
    ?sampling ?timeout_s benches =
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
        collect_one ?prebuilt ?sampling ~seed ~scale ~metrics b)
      items
  in
  let shards = ref [] and shard_metrics = ref [] and lost = ref [] in
  let inputs = ref [] in
  List.iter
    (function
      | Ok (name, dump, snap) ->
          shards := (name, dump) :: !shards;
          if metrics then shard_metrics := (name, snap) :: !shard_metrics;
          (* Prefix routine names with the workload so the 18 programs
             merge into one namespace without collisions. *)
          let raw =
            Profile_io.Raw.rename
              (fun r -> name ^ "/" ^ r)
              (Profile_io.Raw.parse dump)
          in
          inputs := raw :: !inputs
      | Error d -> lost := d :: !lost)
    results;
  {
    raw = Profile_io.Raw.merge (List.rev !inputs);
    shards = List.rev !shards;
    shard_metrics = List.rev !shard_metrics;
    metrics = Metrics.merge (List.rev_map snd !shard_metrics);
    lost = List.rev !lost;
  }
