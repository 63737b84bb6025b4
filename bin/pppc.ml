(* pppc: the command-line driver.

   Programs are given either as a [.pir] file (see Ppp_ir.Parse for the
   grammar) or as [bench:NAME] to use one of the built-in SPEC-shaped
   workloads, e.g. [bench:bzip2]. *)

module Ir = Ppp_ir.Ir
module Interp = Ppp_interp.Interp
module Config = Ppp_core.Config
module H = Ppp_harness.Pipeline
module Metrics = Ppp_obs.Metrics
module Diagnostic = Ppp_resilience.Diagnostic
module Faults = Ppp_resilience.Faults
module Profile_io = Ppp_profile.Profile_io
module Shard = Ppp_harness.Shard
module Jsonx = Ppp_obs.Jsonx
module Trace = Ppp_obs.Trace
module Sink = Ppp_obs.Sink
module Session = Ppp_session.Session
module Telemetry = Ppp_interp.Telemetry
module Quality = Ppp_quality.Quality
module Quality_report = Ppp_harness.Quality_report
module Gate = Ppp_harness.Gate
module Report = Ppp_harness.Report
module Sampling = Ppp_interp.Sampling
module Daemon_client = Ppp_daemon.Client
module Daemon_ops = Ppp_daemon.Ops
module Daemon_chaos = Ppp_daemon.Chaos

open Cmdliner

exception Cli_error of string

(* Exit with this code: raised, not called, so that [with_obs] still
   writes its sinks on the way out. *)
exception Quit of int

let cli_error fmt = Format.kasprintf (fun s -> raise (Cli_error s)) fmt

(* [Some NAME] for a [bench:NAME] program. *)
let bench_of spec =
  match String.index_opt spec ':' with
  | Some i when String.sub spec 0 i = "bench" ->
      Some (String.sub spec (i + 1) (String.length spec - i - 1))
  | _ -> None

let load_program spec ~scale =
  Trace.with_span ~args:[ ("program", spec) ] "parse" @@ fun () ->
  match bench_of spec with
  | Some name -> (
      match Ppp_workloads.Spec.find_opt name with
      | Some b -> b.Ppp_workloads.Spec.build ~scale
      | None ->
          cli_error "unknown benchmark %S (run `pppc benches` to list them)"
            name)
  | None -> (
      (* Well-formedness checking of a user-supplied program raises
         Invalid_argument from inside the parser; that is bad input, not
         a bug, so report it like a parse error. *)
      try Ppp_ir.Parse.program_of_file spec
      with Invalid_argument msg -> cli_error "ill-formed program: %s" msg)

let program_arg =
  let doc = "Input program: a .pir file, or bench:NAME for a built-in workload." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let scale_arg =
  let doc = "Iteration scale for built-in workloads." in
  Arg.(value & opt int 1 & info [ "scale" ] ~doc)

let no_cache_arg =
  let doc =
    "Disable the analysis session: every CFG view, dominator tree, loop \
     nest, flow context and definite-flow DP is recomputed from scratch \
     instead of being served from the content-addressed store. Results \
     are byte-identical with and without the cache; only the amount of \
     work differs."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let session_of ~no_cache name = Session.create ~enabled:(not no_cache) ~name ()

(* Every file this driver writes goes through the atomic temp + fsync +
   rename path: a crash mid-write must never leave a torn dump or report
   that a later run has to salvage. *)
let write_file path text = Sink.write_atomic ~path text

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let engine_arg =
  let doc =
    "Execution engine: $(b,vm) (the pre-lowered flat VM, default) or \
     $(b,reference) (the tree-walking reference interpreter). Both \
     produce identical outcomes, profiles and costs; only wall-clock \
     speed differs."
  in
  Arg.(
    value
    & opt (enum [ ("vm", Interp.Vm); ("reference", Interp.Reference) ]) Interp.Vm
    & info [ "engine" ] ~doc)

(* Only errors with a user-actionable message are caught here; anything
   else is a bug and propagates with a backtrace (catching [Not_found]
   or [Invalid_argument] globally would mask failures anywhere in the
   pipeline). *)
let handle_errors f =
  try f () with
  | Interp.Runtime_error msg ->
      Format.eprintf "runtime error: %s@." msg;
      exit 2
  | Ppp_ir.Parse.Error e ->
      (* Surface parse problems like any other located diagnostic. *)
      let d =
        Diagnostic.make ~line:e.Ppp_ir.Parse.line ?token:e.Ppp_ir.Parse.token
          Diagnostic.Corrupt e.Ppp_ir.Parse.message
      in
      Format.eprintf "%a@." Diagnostic.pp d;
      exit 1
  | Jsonx.Parse_error msg ->
      Format.eprintf "error: malformed JSON: %s@." msg;
      exit 1
  | Unix.Unix_error (e, fn, arg) ->
      (* Surface OS failures as classified diagnostics, not raw
         exception text. *)
      let d =
        Diagnostic.errorf Diagnostic.Io "%s%s: %s" fn
          (if arg = "" then "" else Printf.sprintf " %S" arg)
          (Unix.error_message e)
      in
      Format.eprintf "%a@." Diagnostic.pp d;
      exit 2
  | Quit code -> exit code
  | Cli_error msg
  | Sys_error msg
  (* an unwritable --metrics-out/--trace-out surfaces from with_obs's
     cleanup wrapped by Fun.protect *)
  | Fun.Finally_raised (Sys_error msg) ->
      Format.eprintf "error: %s@." msg;
      exit 1

(* {2 Observability options, shared by run / profile / stats} *)

let obs_args =
  let metrics_out =
    let doc =
      "Enable metrics collection and write a snapshot of every counter, \
       gauge and histogram to $(docv) after the run (JSON; a .csv \
       extension selects CSV)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let trace_out =
    let doc =
      "Record per-phase spans and write a Chrome trace-event file to \
       $(docv); open it in chrome://tracing or https://ui.perfetto.dev."
    in
    Arg.(
      value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  Term.(const (fun m t -> (m, t)) $ metrics_out $ trace_out)

(* Run [f] under the requested observability, writing the sinks even if
   [f] fails partway (a truncated run is exactly when a trace helps). *)
let with_obs ?(force_metrics = false) (metrics_out, trace_out) f =
  if Option.is_some trace_out then begin
    Trace.start ();
    (* Name the process and thread rows so several pppc traces stay
       tellable apart when loaded into one viewer. *)
    Trace.label_process ~thread:"main" "pppc"
  end;
  if force_metrics || Option.is_some metrics_out then begin
    Metrics.set_enabled true;
    Metrics.reset ()
  end;
  let finish () =
    Trace.stop ();
    (match metrics_out with
    | Some path ->
        let snap = Metrics.snapshot () in
        if Filename.check_suffix path ".csv" then
          Sink.write_metrics_csv ~path snap
        else Sink.write_metrics_json ~path snap
    | None -> ());
    match trace_out with Some path -> Trace.write_file path | None -> ()
  in
  Fun.protect ~finally:finish f

(* {2 run} *)

let telemetry_arg =
  let doc =
    "Attach a live-telemetry snapshot ring to the VM, sampled every \
     $(docv) dynamic instructions. Outcomes are byte-identical with and \
     without the ring; a one-line summary goes to stderr, the series to \
     $(b,--telemetry-out) and (as counter events) to $(b,--trace-out). \
     The reference engine takes no samples, so it rejects this flag and \
     $(b,--telemetry-out)."
  in
  Arg.(value & opt (some int) None & info [ "telemetry" ] ~docv:"N" ~doc)

let telemetry_out_arg =
  let doc =
    "Write the telemetry sample series to $(docv) as JSON (implies \
     $(b,--telemetry) at a default interval of 1000)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-out" ] ~docv:"FILE" ~doc)

(* {2 tier flags (run / stats)} *)

let tier_up_arg =
  let doc =
    "Tiered in-VM re-optimization: the run starts with every routine in \
     its PPP-instrumented variant; routines whose frame-entry trip count \
     crosses the threshold are re-lowered hot-path-first (from their own \
     live counters) with instrumentation stripped, and swapped in at the \
     next call boundary or loop back-edge OSR point — one run, no second \
     pass. The program outcome is byte-identical to an untiered run."
  in
  Arg.(value & flag & info [ "tier-up" ] ~doc)

let tier_threshold_arg =
  let doc =
    "Trip count at which a routine tiers up. Trips are frame entries plus \
     path-ending loop back edges, counted until the routine's decision."
  in
  Arg.(
    value
    & opt int Ppp_interp.Tier.default_threshold
    & info [ "tier-threshold" ] ~docv:"N" ~doc)

let tier_budget_arg =
  let doc = "Maximum number of routines allowed to tier up (default: all)." in
  Arg.(value & opt (some int) None & info [ "tier-budget" ] ~docv:"N" ~doc)

let pp_tier_decisions ppf (ds : Ppp_interp.Tier.decision list) =
  List.iter
    (fun (d : Ppp_interp.Tier.decision) ->
      Format.fprintf ppf "  gen %d: %s at %d trips%s@." d.Ppp_interp.Tier.d_gen
        d.Ppp_interp.Tier.d_routine d.Ppp_interp.Tier.d_trips
        (if d.Ppp_interp.Tier.d_order <> None then " (re-laid out)"
         else " (instrumentation stripped)"))
    ds

let run_cmd =
  let action spec scale engine telemetry telemetry_out tier_up tier_threshold
      tier_budget obs =
    handle_errors (fun () ->
        with_obs obs (fun () ->
            if tier_up && tier_threshold < 1 then
              cli_error "--tier-threshold must be >= 1";
            if engine = Interp.Reference
               && (Option.is_some telemetry || Option.is_some telemetry_out)
            then
              cli_error
                "--telemetry and --telemetry-out need --engine vm: the \
                 reference engine takes no telemetry samples";
            let p = load_program spec ~scale in
            let ring =
              match (telemetry, telemetry_out) with
              | Some n, _ -> Some (Telemetry.create ~interval:n ())
              | None, Some _ -> Some (Telemetry.create ~interval:1000 ())
              | None, None -> None
            in
            let print_outcome (o : Interp.outcome) =
              List.iter (fun v -> Format.printf "%d@." v) o.Interp.output;
              Format.printf "return: %s@."
                (match o.Interp.return_value with
                | Some v -> string_of_int v
                | None -> "(none)");
              Format.printf "instructions: %d  cost: %d  paths: %d@."
                o.Interp.dyn_instrs o.Interp.base_cost o.Interp.dyn_paths
            in
            (if tier_up then begin
               let prep = H.prepare_unoptimized ~name:spec p in
               let t =
                 H.tiered_run ~threshold:tier_threshold ?budget:tier_budget
                   ?telemetry:ring ~engine prep Config.ppp
               in
               let o = t.H.t_outcome in
               print_outcome o;
               Format.printf "tier: %d of %d routines tiered up (threshold %d)@."
                 (List.length t.H.t_decisions)
                 (List.length p.Ir.routines)
                 tier_threshold;
               pp_tier_decisions Format.std_formatter t.H.t_decisions;
               Format.printf "instrumentation cost after tiering: %d@."
                 o.Interp.instr_cost
             end
             else
               let config = { Interp.default_config with telemetry = ring } in
               print_outcome
                 (Trace.with_span "run" (fun () -> Interp.run ~config ~engine p)));
            match ring with
            | None -> ()
            | Some t ->
                Telemetry.emit_trace_counters t;
                Format.eprintf
                  "telemetry: %d samples taken (%d dropped by the ring), \
                   interval %d@."
                  (Telemetry.taken t) (Telemetry.dropped t)
                  (Telemetry.interval t);
                (match telemetry_out with
                | Some path ->
                    write_file path (Jsonx.to_string (Telemetry.to_json t) ^ "\n")
                | None -> ())))
  in
  let doc = "Execute a program and print its output and statistics." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const action $ program_arg $ scale_arg $ engine_arg $ telemetry_arg
      $ telemetry_out_arg $ tier_up_arg $ tier_threshold_arg $ tier_budget_arg
      $ obs_args)

(* {2 profile} *)

let method_arg =
  let methods =
    [ ("pp", Config.pp); ("tpp", Config.tpp); ("tpp-check", Config.tpp_original);
      ("ppp", Config.ppp) ]
  in
  let doc = "Profiling method: pp, tpp, tpp-check, or ppp." in
  Arg.(value & opt (enum methods) Config.ppp & info [ "method"; "m" ] ~doc)

let top_arg =
  let doc = "How many hot paths to print." in
  Arg.(value & opt int 10 & info [ "top" ] ~doc)

let profile_cmd =
  let action spec scale config top no_cache obs =
    handle_errors (fun () ->
        with_obs obs @@ fun () ->
        let p = load_program spec ~scale in
        let session = session_of ~no_cache spec in
        let prep = H.prepare_unoptimized ~session ~name:spec p in
        let ev = H.evaluate prep config in
        Format.printf "method: %s@." ev.H.config_name;
        Format.printf "overhead: %.1f%%  accuracy: %.1f%%  coverage: %.1f%%@."
          (100. *. ev.H.overhead) (100. *. ev.H.accuracy) (100. *. ev.H.coverage);
        Format.printf "dynamic paths instrumented: %.1f%% (%.1f%% hashed)@."
          (100. *. ev.H.frac_paths_instrumented)
          (100. *. ev.H.frac_paths_hashed);
        Format.printf "routines instrumented: %d / %d  (static actions: %d)@."
          ev.H.routines_instrumented ev.H.routines_total ev.H.static_actions;
        let hot =
          Ppp_flow.Score.hot_actual ~actual:(H.actual_profile prep)
            ~views:(H.views prep) ~metric:Ppp_profile.Metric.Branch_flow
            ~threshold:0.00125
        in
        Format.printf "@.hot paths (ground truth, branch flow):@.";
        List.iteri
          (fun i (rname, path, flow) ->
            if i < top then
              Format.printf "  %8d  %s %a@." flow rname
                (Ppp_profile.Path.pp (H.views prep rname))
                path)
          hot)
  in
  let doc =
    "Instrument a program with a path profiler, run it, and report \
     overhead, accuracy and coverage plus the hot paths."
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const action $ program_arg $ scale_arg $ method_arg $ top_arg
      $ no_cache_arg $ obs_args)

(* {2 stats} *)

let stats_cmd =
  let format_arg =
    let doc = "Output format for the metrics snapshot: table, json or csv." in
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("json", `Json); ("csv", `Csv) ]) `Table
      & info [ "format"; "f" ] ~doc)
  in
  let action spec scale config fmt no_cache tier_up tier_threshold tier_budget
      obs =
    handle_errors (fun () ->
        with_obs ~force_metrics:true obs @@ fun () ->
        if tier_threshold < 1 then cli_error "--tier-threshold must be >= 1";
        let p = load_program spec ~scale in
        let session = session_of ~no_cache spec in
        let prep = H.prepare_unoptimized ~session ~name:spec p in
        let ev = H.evaluate prep config in
        Format.eprintf
          "%s: method %s  overhead %.1f%%  accuracy %.1f%%  coverage %.1f%%@."
          spec ev.H.config_name (100. *. ev.H.overhead) (100. *. ev.H.accuracy)
          (100. *. ev.H.coverage);
        (* With --tier-up, also execute one tiered run so the tier.*
           metric family below carries this program's swap activity
           rather than zeros. *)
        if tier_up then begin
          let t =
            H.tiered_run ~threshold:tier_threshold ?budget:tier_budget prep
              config
          in
          Format.eprintf
            "tiered: %d routines swapped, overhead %.1f%% (untiered %.1f%%)@."
            (List.length t.H.t_decisions)
            (100. *. Interp.overhead t.H.t_outcome)
            (100. *. ev.H.overhead);
          pp_tier_decisions Format.err_formatter t.H.t_decisions
        end;
        Format.eprintf "%a@." Session.pp_stats prep.H.session;
        let snap = Metrics.snapshot () in
        match fmt with
        | `Table -> Format.printf "%a@." Metrics.pp_snapshot snap
        | `Json ->
            Format.printf "%s@."
              (Ppp_obs.Jsonx.to_string (Sink.metrics_json snap))
        | `Csv -> Sink.pp_metrics_csv Format.std_formatter snap)
  in
  let doc =
    "Profile a program and dump the full metrics snapshot: interpreter \
     counters (dynamic instructions, paths, fuel, per-kind edge-action \
     executions), hash-table statistics (probes, collisions per try, cold \
     and lost counts) and placement counters (static actions, paths \
     numbered vs. hashed). The evaluation summary goes to stderr, the \
     snapshot to stdout."
  in
  Cmd.v
    (Cmd.info "stats" ~doc)
    Term.(
      const action $ program_arg $ scale_arg $ method_arg $ format_arg
      $ no_cache_arg $ tier_up_arg $ tier_threshold_arg $ tier_budget_arg
      $ obs_args)

(* {2 instrument} *)

let instrument_cmd =
  let action spec scale config =
    handle_errors (fun () ->
        let p = load_program spec ~scale in
        let o = Interp.run p in
        let ep = Option.get o.Interp.edge_profile in
        let inst = Ppp_core.Instrument.instrument p ep config in
        List.iter
          (fun (r : Ir.routine) ->
            let plan = Hashtbl.find inst.Ppp_core.Instrument.plans r.Ir.name in
            Format.printf "%a@.@." Ppp_core.Instrument.pp_plan plan)
          p.Ir.routines)
  in
  let doc =
    "Show the instrumentation a profiling method would place: per-edge      actions in the paper's notation, table kinds, elided obvious paths."
  in
  Cmd.v
    (Cmd.info "instrument" ~doc)
    Term.(const action $ program_arg $ scale_arg $ method_arg)

(* {2 collect} *)

let jobs_arg =
  let doc =
    "Number of forked worker processes. Only multi-workload work \
     ($(b,bench:all), fuzz-profile) shards; results are identical at \
     every $(docv) (workers that die are reported and skipped)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let mkdir_p dir =
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* {2 Talking to the resident daemon}

   Exit codes are part of the contract: 10 daemon unreachable (with
   --daemon-required), 11 request deadline exceeded, 12 work done but on
   the degraded in-process fallback path. *)

let daemon_args =
  let socket =
    let doc =
      "Send the request to the resident $(b,pppd) daemon listening on \
       $(docv) instead of computing in-process. A warm daemon serves \
       repeated requests from its persistent store. If the daemon is \
       unreachable or sheds the request under load, the work falls back \
       to the in-process path and pppc exits with code 12."
    in
    Arg.(value & opt (some string) None & info [ "daemon" ] ~docv:"SOCKET" ~doc)
  in
  let deadline =
    let doc =
      "Wall-clock budget for the daemon request, in milliseconds; on \
       expiry pppc exits with code 11. The budget is enforced on both \
       sides of the socket."
    in
    Arg.(value & opt int 30_000 & info [ "daemon-deadline-ms" ] ~docv:"MS" ~doc)
  in
  let required =
    let doc =
      "Fail with exit code 10 instead of falling back to the in-process \
       path when the daemon is unreachable."
    in
    Arg.(value & flag & info [ "daemon-required" ] ~doc)
  in
  Term.(const (fun s d r -> (s, d, r)) $ socket $ deadline $ required)

(* Send [req] to the daemon and print its reply. Unreachable/shed
   degrades to [fallback] (exit 12) unless [required] (exit 10); a
   timeout is terminal (exit 11): the budget is spent, so silently
   redoing the work in-process would break the bound. *)
let via_daemon ~socket ~deadline_ms ~required ~output ?name ~fallback req =
  match Daemon_client.call ~socket ~deadline_ms req with
  | Ok (body, meta) -> Daemon_ops.print ?output ?name (Daemon_ops.Okay { body; meta })
  | Error (Daemon_client.Remote (code, diagnostics)) ->
      Daemon_ops.print (Daemon_ops.Failed { code; diagnostics });
      raise (Quit 2)
  | Error f ->
      Format.eprintf "%a@." Diagnostic.pp (Daemon_client.failure_diagnostic f);
      if f = Daemon_client.Timeout then
        raise (Quit Daemon_client.Exit.request_timeout);
      if required then raise (Quit Daemon_client.Exit.daemon_unreachable);
      Format.eprintf "%a@." Diagnostic.pp
        (Diagnostic.make ~severity:Diagnostic.Warning Diagnostic.Degraded
           "falling back to the in-process path");
      fallback ();
      raise (Quit Daemon_client.Exit.degraded)

(* Collect every built-in workload under the worker pool and merge the
   shards; [pppc collect bench:all]. *)
let collect_all ~scale ~engine ~jobs ~output ~shard_dir ~metrics_wanted
    ~sampling =
  let metrics = metrics_wanted || Option.is_some shard_dir in
  let c =
    Shard.collect_workloads ~jobs ~scale ~metrics ~engine ?sampling
      Ppp_workloads.Spec.all
  in
  (match shard_dir with
  | None -> ()
  | Some dir ->
      mkdir_p dir;
      List.iter
        (fun (name, raw) ->
          write_file
            (Filename.concat dir (name ^ ".ppp"))
            (Profile_io.Raw.to_string raw))
        c.Shard.shards;
      List.iter
        (fun (name, snap) ->
          Sink.write_metrics_json
            ~path:(Filename.concat dir (name ^ ".metrics.json"))
            snap)
        c.Shard.shard_metrics);
  if metrics_wanted then Metrics.absorb c.Shard.metrics;
  List.iter (fun d -> Format.eprintf "%a@." Diagnostic.pp d) c.Shard.lost;
  (match Profile_io.Raw.diagnostics c.Shard.raw with
  | [] -> ()
  | ds -> Format.eprintf "%a" Diagnostic.pp_list ds);
  let text = Profile_io.Raw.to_string c.Shard.raw in
  (match output with None -> print_string text | Some path -> write_file path text);
  Format.eprintf "collected %d/%d workloads (-j %d): count mass %d, lost %d@."
    (List.length c.Shard.shards)
    (List.length Ppp_workloads.Spec.all)
    jobs
    (Profile_io.Raw.mass c.Shard.raw)
    (Profile_io.Raw.lost c.Shard.raw);
  if c.Shard.lost <> [] then raise (Quit 3)

let collect_cmd =
  let output_arg =
    let doc = "Write the profile here instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  let shard_dir_arg =
    let doc =
      "With $(b,bench:all): also write every workload's own dump \
       (NAME.ppp) and metrics snapshot (NAME.metrics.json) into $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "shard-dir" ] ~docv:"DIR" ~doc)
  in
  let sample_rate_arg =
    let doc =
      "Collect under bursty sampled PPP instrumentation at this rate \
       ($(b,1), $(b,1/16), or a bare denominator). $(b,1) (the default) \
       is exact collection; below 1, path counts in the dump are \
       inverse-rate estimates recovered from the sampled run, while the \
       edge profile stays exact. Distinct from the telemetry ring's \
       snapshot sampling ($(b,run --telemetry))."
    in
    Arg.(value & opt string "1" & info [ "sample-rate" ] ~docv:"RATE" ~doc)
  in
  let burst_arg =
    let doc =
      "Burst length for sampled collection: instrument $(docv) \
       consecutive frames per sampling period."
    in
    Arg.(
      value
      & opt int Sampling.default_burst
      & info [ "burst" ] ~docv:"N" ~doc)
  in
  let sample_seed_arg =
    let doc =
      "Seed for the sampled-collection phase PRNG (with $(b,bench:all), \
       the pool seed each workload's own seed derives from)."
    in
    Arg.(value & opt int 0 & info [ "sample-seed" ] ~docv:"N" ~doc)
  in
  let action spec scale engine output jobs shard_dir sample_rate burst
      sample_seed obs (daemon, daemon_deadline_ms, daemon_required) =
    handle_errors (fun () ->
        let denom =
          match Sampling.parse_rate sample_rate with
          | Ok d -> d
          | Error msg -> cli_error "--sample-rate %s" msg
        in
        if burst < 1 then cli_error "--burst must be at least 1 (got %d)" burst;
        let sampling =
          if denom <= 1 then None
          else Some (Sampling.spec ~denom ~burst ~seed:sample_seed ())
        in
        let daemon =
          match daemon with
          | None -> None
          | Some _ when spec = "bench:all" ->
              cli_error "--daemon serves one workload per request, not bench:all"
          | Some socket -> (
              match bench_of spec with
              | Some bench -> Some (socket, bench)
              | None ->
                  cli_error
                    "--daemon needs a bench:NAME program (got %S): the daemon \
                     does not read local files" spec)
        in
        let in_process () =
          Daemon_ops.print ?output
            (Daemon_ops.collect ~engine ?sampling (load_program spec ~scale))
        in
        with_obs obs (fun () ->
            if spec = "bench:all" then
              collect_all ~scale ~engine ~jobs ~output ~shard_dir
                ~metrics_wanted:(Option.is_some (fst obs)) ~sampling
            else
              match daemon with
              | None -> in_process ()
              | Some (socket, bench) ->
                  via_daemon ~socket ~deadline_ms:daemon_deadline_ms
                    ~required:daemon_required ~output ~fallback:in_process
                    (Daemon_ops.Collect
                       { bench; scale; sample_rate = denom; burst; sample_seed })))
  in
  let doc =
    "Run a program and dump its edge and path profiles as text (validated \
     v2 format: versioned header, CFG fingerprints, per-section CRC). \
     $(b,bench:all) collects every built-in workload — sharded across \
     $(b,-j) worker processes — and merges the shards into one dump whose \
     bytes are identical at every $(b,-j)."
  in
  Cmd.v (Cmd.info "collect" ~doc)
    Term.(
      const action $ program_arg $ scale_arg $ engine_arg $ output_arg
      $ jobs_arg $ shard_dir_arg $ sample_rate_arg $ burst_arg
      $ sample_seed_arg $ obs_args $ daemon_args)

(* {2 merge} *)

let merge_cmd =
  let files_arg =
    let doc = "Profile dumps (v2) to merge." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let output_arg =
    let doc = "Write the merged profile here instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  let decay_arg =
    let doc =
      "Fleet-style decayed merge: with $(docv) below 1, input $(i,i) of \
       $(i,n) (oldest first, in argument order) is pre-scaled by \
       $(docv)^($(i,n)-1-$(i,i)) before the commutative merge, so newer \
       dumps dominate; the scaled-away mass is accounted in the lost \
       ledger. $(b,1.0) (the default) is the plain order-independent \
       merge."
    in
    Arg.(value & opt float 1.0 & info [ "decay" ] ~docv:"D" ~doc)
  in
  let action files output decay (daemon, daemon_deadline_ms, daemon_required) =
    handle_errors @@ fun () ->
    if not (decay > 0.0 && decay <= 1.0) then
      cli_error "--decay must be in (0, 1] (got %g)" decay;
    let in_process () =
      Daemon_ops.print ?output
        (Daemon_ops.merge ~decay (List.map read_file files))
    in
    match daemon with
    | None -> in_process ()
    | Some socket ->
        via_daemon ~socket ~deadline_ms:daemon_deadline_ms
          ~required:daemon_required ~output ~fallback:in_process
          (Daemon_ops.Merge { dumps = List.map read_file files; decay })
  in
  let doc =
    "Merge profile dumps (e.g. per-shard dumps from $(b,collect \
     --shard-dir), or profiles of the same program from different runs) \
     into one canonical v2 dump: counts add (saturating), shards whose \
     CFG metadata disagrees are salvaged through stale matching, and \
     every problem is reported as a diagnostic on stderr. The merge is \
     order-independent, except under $(b,--decay) where argument order \
     is the age order (oldest first)."
  in
  Cmd.v (Cmd.info "merge" ~doc)
    Term.(const action $ files_arg $ output_arg $ decay_arg $ daemon_args)

(* {2 opt} *)

let opt_cmd =
  let output_arg =
    let doc = "Write the optimized program here instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  let superblocks_arg =
    let doc =
      "Also straighten each routine's hottest decoded path into a \
       superblock (tail duplication) before inlining, driven by the path \
       profile. Hot paths that no longer match the CFG are reported as \
       stale-path diagnostics and skipped, never fatal. Computed \
       in-process (the daemon protocol does not carry optimizer flags)."
    in
    Arg.(value & flag & info [ "superblocks" ] ~doc)
  in
  let layout_arg =
    let doc =
      "Also lay out each routine's VM code so its hottest decoded path \
       falls through, exiling cold blocks to the tail. Outcomes are \
       byte-identical with and without the layout; only the emission \
       order (and the taken-transfer / locality proxy) changes. Computed \
       in-process (the daemon protocol does not carry optimizer flags)."
    in
    Arg.(value & flag & info [ "layout" ] ~doc)
  in
  let profile_arg =
    let doc =
      "Drive inlining from this saved profile (v2, possibly stale) \
       instead of a fresh profiling run. Problems are reported as \
       diagnostics and the salvageable part of the profile is used, with \
       optimization aggressiveness degraded to the matched fraction."
    in
    Arg.(
      value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)
  in
  let iterate_arg =
    let doc =
      "Run $(docv) optimize-profile-re-instrument generations against \
       one shared analysis session: each generation re-optimizes from \
       the previous generation's saved profile (reloaded through the \
       stale matcher) and re-instruments every routine under its own \
       profile. The session saves the analyses of routines the \
       optimizers left untouched, never their placement."
    in
    Arg.(value & opt int 1 & info [ "iterate" ] ~docv:"N" ~doc)
  in
  let action spec scale output profile iterate superblocks layout no_cache
      (daemon, daemon_deadline_ms, daemon_required) =
    handle_errors (fun () ->
        (* A request either path would reject fails here, before a
           daemon is asked, so it prints and exits alike on both. *)
        let p = load_program spec ~scale in
        if iterate > 1 && profile <> None then
          cli_error "--profile cannot be combined with --iterate";
        let dump = Option.map (fun path -> (path, read_file path)) profile in
        let loaded =
          Option.map
            (fun (path, text) ->
              match Profile_io.load p text with
              | Ok loaded -> loaded
              | Error ds ->
                  Format.eprintf "%a" Diagnostic.pp_list ds;
                  cli_error "profile %S could not be salvaged" path)
            dump
        in
        let in_process () =
          Daemon_ops.print ?output ~name:spec
            (Daemon_ops.opt
               ~flags:{ H.superblocks; H.layout }
               ~session:(session_of ~no_cache spec) ?profile:loaded ~iterate
               ~name:spec p)
        in
        match daemon with
        | Some _ when superblocks || layout ->
            (* The daemon request/reply protocol does not carry optimizer
               flags; rather than silently optimize without them, do the
               flagged work in-process. *)
            Format.eprintf "%a@." Diagnostic.pp
              (Diagnostic.make ~severity:Diagnostic.Warning Diagnostic.Degraded
                 "--superblocks/--layout are computed in-process; ignoring \
                  --daemon for this request");
            in_process ()
        | None -> in_process ()
        | Some socket ->
            let program =
              if bench_of spec = None then read_file spec
              else Ppp_ir.Pp_ir.to_string p
            in
            via_daemon ~socket ~deadline_ms:daemon_deadline_ms
              ~required:daemon_required ~output ~name:spec ~fallback:in_process
              (Daemon_ops.Opt
                 {
                   name = spec;
                   program;
                   profile = Option.map snd dump;
                   iterate;
                   plans = None;
                 }))
  in
  let doc =
    "Apply profile-guided inlining and unrolling; print the result. With \
     $(b,--iterate N), repeat the optimize-profile-re-instrument loop \
     incrementally against one analysis session."
  in
  Cmd.v (Cmd.info "opt" ~doc)
    Term.(
      const action $ program_arg $ scale_arg $ output_arg $ profile_arg
      $ iterate_arg $ superblocks_arg $ layout_arg $ no_cache_arg
      $ daemon_args)

(* {2 dot} *)

let dot_cmd =
  let routine_arg =
    let doc = "Routine to dump (default: the main routine)." in
    Arg.(value & opt (some string) None & info [ "routine"; "r" ] ~doc)
  in
  let heat_arg =
    let doc =
      "Run the program first and color edges by edge-profile frequency: \
       red for hot (at least 0.125% of total program flow, the paper's \
       hot-path threshold), blue for executed-but-cold, dashed gray for \
       never executed."
    in
    Arg.(value & flag & info [ "heat" ] ~doc)
  in
  let action spec scale routine heat =
    handle_errors (fun () ->
        let p = load_program spec ~scale in
        let rname = Option.value routine ~default:p.Ir.main in
        let r =
          match Ir.find_routine p rname with
          | Some r -> r
          | None -> cli_error "unknown routine %S" rname
        in
        let view = Ppp_ir.Cfg_view.of_routine r in
        let g = Ppp_ir.Cfg_view.graph view in
        let label v =
          match Ppp_ir.Cfg_view.block_of_node view v with
          | Some b -> r.Ir.blocks.(b).Ir.label
          | None -> "EXIT"
        in
        if heat then begin
          let module Edge_profile = Ppp_profile.Edge_profile in
          let o = Interp.run p in
          let ep = Option.get o.Interp.edge_profile in
          let total =
            List.fold_left
              (fun acc (r : Ir.routine) ->
                acc + Edge_profile.total (Edge_profile.routine ep r.Ir.name))
              0 p.Ir.routines
          in
          Ppp_cfg.Dot.pp_heat ~node_label:label ~name:rname
            ~freq:(Edge_profile.freq (Edge_profile.routine ep rname))
            ~total Format.std_formatter g
        end
        else
          Ppp_cfg.Dot.pp ~node_label:label ~name:rname Format.std_formatter g)
  in
  let doc =
    "Print a routine's control-flow graph in Graphviz format, optionally \
     heat-annotated from an edge profile ($(b,--heat))."
  in
  Cmd.v (Cmd.info "dot" ~doc)
    Term.(const action $ program_arg $ scale_arg $ routine_arg $ heat_arg)

(* {2 emit (built-in workloads as .pir)} *)

let emit_cmd =
  let action spec scale =
    handle_errors (fun () ->
        let p = load_program spec ~scale in
        print_string (Ppp_ir.Pp_ir.to_string p))
  in
  let doc = "Print a program (e.g. a built-in workload) as .pir text." in
  Cmd.v (Cmd.info "emit" ~doc) Term.(const action $ program_arg $ scale_arg)

(* {2 fuzz-profile} *)

(* The fault-injection harness: for every built-in workload, collect a
   pristine v2 profile, perturb it with every fault kind, and require the
   loader to (a) never raise and (b) classify every injected fault as at
   least one diagnostic. Also starves the interpreter of fuel to check
   that exhaustion degrades instead of raising. *)
let fuzz_profile_cmd =
  let seed_arg =
    let doc = "PRNG seed; the same seed reproduces every perturbation." in
    Arg.(value & opt int 42 & info [ "seed" ] ~doc)
  in
  let out_arg =
    let doc = "Write a JSON report of every case and its diagnostics." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  (* One workload's whole fault matrix; pure in [seed], so it runs the
     same way in a shard worker as inline and the report is identical at
     every -j. Returns the JSON cases plus human-readable failure lines
     (printed by the parent — worker stdout/stderr must stay quiet). *)
  let fuzz_bench ~seed (b : Ppp_workloads.Spec.bench) =
    let r = Faults.rng ~seed in
    let bench = b.Ppp_workloads.Spec.bench_name in
    let cases = ref [] and fail_lines = ref [] in
    let record fault status diags =
      cases :=
        Jsonx.Obj
          [
            ("bench", Jsonx.Str bench);
            ("fault", Jsonx.Str fault);
            ("status", Jsonx.Str status);
            ("diagnostics", Diagnostic.list_to_json diags);
          ]
        :: !cases
    in
    let fail_case fault why =
      fail_lines :=
        Printf.sprintf "FAIL %-10s %-22s %s" bench fault why :: !fail_lines
    in
    let p = b.Ppp_workloads.Spec.build ~scale:1 in
    let o = Interp.run p in
    let pristine =
      Format.asprintf "%t" (fun ppf ->
          Profile_io.save ?edges:o.Interp.edge_profile
            ?paths:o.Interp.path_profile ppf p)
    in
    (* The unperturbed dump must load cleanly... *)
    (match Profile_io.load p pristine with
    | Ok l when l.Profile_io.diagnostics = [] -> record "none" "clean" []
    | Ok l ->
        fail_case "none" "diagnostics on a pristine profile";
        record "none" "dirty" l.Profile_io.diagnostics
    | Error ds ->
        fail_case "none" "pristine profile rejected";
        record "none" "rejected" ds
    | exception e ->
        fail_case "none" (Printexc.to_string e);
        record "none" "raised" []);
    (* ...and every perturbation must be classified, never thrown. *)
    List.iter
      (fun fault ->
        let fname = Faults.name fault in
        let mutated = Faults.apply r fault pristine in
        match Profile_io.load p mutated with
        | Ok l ->
            if l.Profile_io.diagnostics = [] then
              fail_case fname "fault loaded without a diagnostic";
            record fname "salvaged" l.Profile_io.diagnostics
        | Error ds ->
            if ds = [] then fail_case fname "rejected silently";
            record fname "rejected" ds
        | exception e ->
            fail_case fname (Printexc.to_string e);
            record fname "raised" [])
      Faults.all;
    (* Fuel starvation: a partial run is an outcome, not an error. *)
    (match Interp.run ~config:{ Interp.default_config with fuel = 100 } p with
    | o2 ->
        let status =
          match o2.Interp.termination with
          | Interp.Out_of_fuel _ -> "out-of-fuel"
          | Interp.Finished -> "finished"
        in
        record "starve-fuel" status []
    | exception e ->
        fail_case "starve-fuel" (Printexc.to_string e);
        record "starve-fuel" "raised" []);
    (List.rev !cases, List.rev !fail_lines)
  in
  let action seed out jobs =
    handle_errors @@ fun () ->
    let results =
      Shard.map ~jobs ~seed ~f:fuzz_bench Ppp_workloads.Spec.all
    in
    let failures = ref 0 in
    let cases = ref [] in
    List.iter2
      (fun (b : Ppp_workloads.Spec.bench) result ->
        match result with
        | Ok (bench_cases, fail_lines) ->
            cases := List.rev_append bench_cases !cases;
            List.iter
              (fun line ->
                incr failures;
                Format.eprintf "%s@." line)
              fail_lines
        | Error d ->
            incr failures;
            Format.eprintf "FAIL %-10s %-22s %a@." b.Ppp_workloads.Spec.bench_name
              "shard" Diagnostic.pp d;
            cases :=
              Jsonx.Obj
                [
                  ("bench", Jsonx.Str b.Ppp_workloads.Spec.bench_name);
                  ("fault", Jsonx.Str "shard");
                  ("status", Jsonx.Str "lost");
                  ("diagnostics", Diagnostic.list_to_json [ d ]);
                ]
              :: !cases)
      Ppp_workloads.Spec.all results;
    let report =
      Jsonx.Obj
        [
          ("seed", Jsonx.Int seed);
          ("failures", Jsonx.Int !failures);
          ("cases", Jsonx.Arr (List.rev !cases));
        ]
    in
    (match out with
    | Some path -> write_file path (Jsonx.to_string report ^ "\n")
    | None -> ());
    Format.printf "fuzz-profile: seed %d, %d cases, %d failures@." seed
      (List.length !cases) !failures;
    if !failures > 0 then exit 1
  in
  let doc =
    "Inject faults (truncation, bit flips, section reordering, renames, \
     dropped/duplicated registrations, garbage) into profiles of every \
     built-in workload and verify the loader classifies each one as a \
     diagnostic without ever raising; also checks fuel starvation \
     degrades gracefully. Workloads shard across $(b,-j) worker \
     processes; every workload's perturbations derive from --seed and \
     its own index, so the report is identical at every $(b,-j)."
  in
  Cmd.v
    (Cmd.info "fuzz-profile" ~doc)
    Term.(const action $ seed_arg $ out_arg $ jobs_arg)

(* {2 report} *)

(* Tiny JSON accessors for rendering: the report document is the source
   of truth, the HTML is a projection of it. *)
let jget j path =
  List.fold_left
    (fun acc k -> Option.bind acc (fun j -> Jsonx.member j k))
    (Some j) path

let jfloat j path =
  match jget j path with
  | Some (Jsonx.Float f) -> Some f
  | Some (Jsonx.Int i) -> Some (float_of_int i)
  | _ -> None

let jint j path = match jget j path with Some (Jsonx.Int i) -> Some i | _ -> None
let jstr j path = match jget j path with Some (Jsonx.Str s) -> Some s | _ -> None

let html_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One self-contained page: the floor summary, then a per-workload table
   of every method's quality scores, with decision and telemetry counts
   where the report carries them. *)
let html_report doc =
  let b = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let num = function Some f -> Printf.sprintf "%.3f" f | None -> "-" in
  let pct = function Some f -> Printf.sprintf "%.1f" f | None -> "-" in
  out "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">";
  out "<title>ppp profile quality</title>\n";
  out
    "<style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse;margin:1em \
     0}td,th{border:1px solid #999;padding:4px \
     8px;text-align:right}th{background:#eee}td:first-child,th:first-child{text-align:left}caption{font-weight:bold;text-align:left;padding:4px \
     0}</style></head><body>\n";
  out "<h1>Profile quality report</h1>\n";
  out "<p>scale %s, hot threshold %s</p>\n"
    (match jint doc [ "scale" ] with Some i -> string_of_int i | None -> "-")
    (num (jfloat doc [ "hot_threshold" ]));
  out
    "<table><caption>Summary: weighted overlap vs measured truth, per \
     method over all workloads</caption>\n";
  out
    "<tr><th>method</th><th>mean overlap %%</th><th>min overlap \
     %%</th><th>workloads</th></tr>\n";
  List.iter
    (fun m ->
      out "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n" m
        (pct (jfloat doc [ "summary"; "methods"; m; "mean_overlap" ]))
        (pct (jfloat doc [ "summary"; "methods"; m; "min_overlap" ]))
        (match jint doc [ "summary"; "methods"; m; "workloads" ] with
        | Some i -> string_of_int i
        | None -> "-"))
    Quality_report.method_names;
  out "</table>\n";
  let benches =
    match Jsonx.member doc "benchmarks" with
    | Some (Jsonx.Arr bs) -> bs
    | _ -> []
  in
  List.iter
    (fun bj ->
      let name = Option.value ~default:"?" (jstr bj [ "name" ]) in
      let extra =
        List.filter_map
          (fun (label, path) ->
            Option.map
              (fun i -> Printf.sprintf "%s %d" label i)
              (jint bj path))
          [
            ("decisions", [ "decisions"; "count" ]);
            ("telemetry samples", [ "telemetry"; "taken" ]);
          ]
      in
      out "<table><caption>%s%s</caption>\n" (html_escape name)
        (match extra with
        | [] -> ""
        | es -> " (" ^ String.concat ", " es ^ ")");
      out
        "<tr><th>method</th><th>overlap %%</th><th>hot precision</th><th>hot \
         recall</th><th>hot flow cov</th><th>total \
         divergence</th><th>composite</th><th>overhead</th><th>accuracy</th><th>coverage</th></tr>\n";
      List.iter
        (fun m ->
          let f path = jfloat bj ([ "methods"; m ] @ path) in
          out
            "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
            m
            (pct (f [ "overlap_pct" ]))
            (num (f [ "hot"; "precision" ]))
            (num (f [ "hot"; "recall" ]))
            (num (f [ "hot"; "flow_coverage" ]))
            (num (f [ "total_divergence" ]))
            (num (f [ "composite" ]))
            (num (f [ "overhead" ]))
            (num (f [ "accuracy" ]))
            (num (f [ "coverage" ])))
        Quality_report.method_names;
      out "</table>\n")
    benches;
  out "</body></html>\n";
  Buffer.contents b

let report_cmd =
  let bench_arg =
    let doc =
      "Restrict the report to these workloads (comma-separated names; \
       default: every built-in workload)."
    in
    Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"NAMES" ~doc)
  in
  let output_arg =
    let doc = "Write the JSON report here instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  let html_arg =
    let doc = "Also render the report as one self-contained HTML page." in
    Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE" ~doc)
  in
  let iterate_arg =
    let doc =
      "Also run $(docv) optimize-profile-re-instrument generations per \
       workload and attach each generation's decision log diffed against \
       the previous one (placement stability)."
    in
    Arg.(value & opt int 1 & info [ "iterate" ] ~docv:"N" ~doc)
  in
  let telemetry_arg =
    let doc =
      "Attach a live VM telemetry series per workload, sampled every \
       $(docv) dynamic instructions of the optimized program."
    in
    Arg.(value & opt (some int) None & info [ "telemetry" ] ~docv:"N" ~doc)
  in
  let action scale bench output html iterate telemetry no_cache obs =
    handle_errors (fun () ->
        with_obs obs @@ fun () ->
        let names = Option.map (String.split_on_char ',') bench in
        Option.iter
          (List.iter (fun n ->
               if Ppp_workloads.Spec.find_opt n = None then
                 cli_error
                   "unknown benchmark %S (run `pppc benches` to list them)" n))
          names;
        let benches =
          Trace.with_span "prepare" @@ fun () ->
          Report.prepare_all ~scale ?names ~cache:(not no_cache) ()
        in
        let rows =
          List.map
            (fun pb ->
              Trace.with_span
                ~args:[ ("bench", pb.Report.spec.Ppp_workloads.Spec.bench_name) ]
                "quality-row"
              @@ fun () ->
              Quality_report.bench_row ~iterations:iterate
                ?telemetry_interval:telemetry pb)
            benches
        in
        (* The layout evaluations were computed (and memoized) by the
           rows above; the table is a free summary on stderr. *)
        Option.iter
          (fun (s : Report.section) -> s.render Format.err_formatter benches)
          (Report.find_section "layout");
        let doc = Jsonx.canonical (Quality_report.wrap ~scale rows) in
        let text = Jsonx.to_string doc in
        (match output with
        | Some path ->
            write_file path (text ^ "\n");
            Format.eprintf "wrote %s@." path
        | None -> print_endline text);
        match html with
        | Some path ->
            write_file path (html_report doc);
            Format.eprintf "wrote %s@." path
        | None -> ())
  in
  let doc =
    "Build the profile-quality report (schema ppp-quality/2): per \
     workload, every method's estimated profile scored against the \
     measured truth (weighted overlap, hot precision/recall/coverage, \
     per-routine divergence, composite), the optimizer decision log \
     (with per-generation diffs under $(b,--iterate)), and optionally a \
     live VM telemetry series. Each row is the bench harness's quality \
     section, whose per-method overlap floors its gate checks \
     ($(b,bench/main.exe quality --baseline FILE))."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const action $ scale_arg $ bench_arg $ output_arg $ html_arg
      $ iterate_arg $ telemetry_arg $ no_cache_arg $ obs_args)

(* {2 compare} *)

let compare_cmd =
  let a_arg =
    let doc = "Reference profile dump (v2)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"A.ppp" ~doc)
  in
  let b_arg =
    let doc = "Candidate profile dump to compare against the reference." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"B.ppp" ~doc)
  in
  let output_arg =
    let doc = "Write the comparison JSON here instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  let action a_path b_path output =
    handle_errors @@ fun () ->
    let parse path =
      let raw = Profile_io.Raw.parse (read_file path) in
      (match Profile_io.Raw.diagnostics raw with
      | [] -> ()
      | ds -> Format.eprintf "%s: %a" path Diagnostic.pp_list ds);
      raw
    in
    let raw_a = parse a_path in
    let raw_b = parse b_path in
    (* The candidate's counts move onto the reference's CFG descriptions
       by the salvage rule merge and load apply, so dumps of different
       program versions compare path by path. The move's own
       diagnostics follow the candidate's parse diagnostics. *)
    let moved = Profile_io.Raw.onto ~reference:raw_a raw_b in
    let moved_diags =
      List.filteri
        (fun i _ -> i >= List.length (Profile_io.Raw.diagnostics raw_b))
        (Profile_io.Raw.diagnostics moved)
    in
    Format.eprintf "%a" Diagnostic.pp_list moved_diags;
    let stale =
      List.length
        (List.filter
           (fun (d : Diagnostic.t) -> d.Diagnostic.kind = Diagnostic.Stale)
           moved_diags)
    in
    let dropped = Profile_io.Raw.lost moved - Profile_io.Raw.lost raw_b in
    let metric = Ppp_profile.Metric.Branch_flow in
    let reference = Quality.of_dump ~metric raw_a in
    let candidate = Quality.of_dump ~metric moved in
    let json =
      match Quality.comparison_json ~reference ~candidate () with
      | Jsonx.Obj fields ->
          Jsonx.Obj
            ([
               ("schema", Jsonx.Str "ppp-compare/2");
               ("reference", Jsonx.Str a_path);
               ("candidate", Jsonx.Str b_path);
               ("remapped", Jsonx.Bool (stale > 0));
               ( "remap",
                 Jsonx.Obj
                   [
                     ("stale_routines", Jsonx.Int stale);
                     ("counts_kept", Jsonx.Int (Profile_io.Raw.mass moved));
                     ("counts_dropped", Jsonx.Int dropped);
                   ] );
             ]
            @ fields)
      | other -> other
    in
    let text = Jsonx.to_string (Jsonx.canonical json) in
    (match output with
    | Some path -> write_file path (text ^ "\n")
    | None -> print_endline text);
    Format.eprintf "overlap %.1f%%, total divergence %.3f, composite %.3f@."
      (Quality.overlap reference candidate)
      (Quality.total_divergence reference candidate)
      (Quality.composite ~reference ~candidate ())
  in
  let doc =
    "Compare two saved profile dumps program-free (schema ppp-compare/2): \
     weighted overlap, hot-set precision/recall/flow-coverage, \
     per-routine divergence and the composite score, weighting paths by \
     branch flow from the dumps' own CFG descriptions. The candidate's \
     counts are first moved onto the reference's CFGs by the salvage \
     rule $(b,merge) and $(b,opt --profile) apply, so dumps of different \
     program versions compare path by path; the $(b,remap) object counts \
     the routines moved through stale matching and the counts kept and \
     dropped."
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const action $ a_arg $ b_arg $ output_arg)

(* {2 daemon control} *)

let socket_arg =
  let doc = "Path of the daemon's Unix-domain socket." in
  Arg.(
    required & opt (some string) None & info [ "socket" ] ~docv:"SOCKET" ~doc)

let daemon_cmd =
  let op_arg =
    let doc = "One of $(b,ping), $(b,status) or $(b,shutdown)." in
    Arg.(
      required
      & pos 0 (some (enum [ ("ping", `Ping); ("status", `Status);
                            ("shutdown", `Shutdown) ])) None
      & info [] ~docv:"OP" ~doc)
  in
  let deadline_arg =
    let doc = "Deadline for the control request, in milliseconds." in
    Arg.(value & opt int 5_000 & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let action op socket deadline_ms =
    handle_errors (fun () ->
        let req =
          match op with
          | `Ping -> Daemon_ops.Ping
          | `Status -> Daemon_ops.Status
          | `Shutdown -> Daemon_ops.Shutdown
        in
        match Daemon_client.call ~socket ~deadline_ms req with
        | Ok (body, meta) ->
            if meta = [] then Format.printf "%s@." body
            else Format.printf "%a@." Jsonx.pp (Jsonx.Obj meta)
        | Error Daemon_client.Timeout ->
            Format.eprintf "%a@." Diagnostic.pp
              (Daemon_client.failure_diagnostic Daemon_client.Timeout);
            exit Daemon_client.Exit.request_timeout
        | Error f ->
            Format.eprintf "%a@." Diagnostic.pp
              (Daemon_client.failure_diagnostic f);
            exit Daemon_client.Exit.daemon_unreachable)
  in
  let doc =
    "Control a resident $(b,pppd) daemon: $(b,ping) checks liveness, \
     $(b,status) prints the daemon's JSON status (workers, restarts, \
     queue depth, store entries, quarantined entries), $(b,shutdown) \
     asks it to stop. Exits 10 when the daemon is unreachable and 11 on \
     a deadline."
  in
  Cmd.v (Cmd.info "daemon" ~doc)
    Term.(const action $ op_arg $ socket_arg $ deadline_arg)

(* {2 chaos} *)

let chaos_cmd =
  let dir_arg =
    let doc =
      "Scratch directory for the daemon under test (socket, store, log); \
       created if missing, inspectable afterwards."
    in
    Arg.(value & opt string "_chaos" & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let seed_arg =
    let doc = "Seed for every random choice the harness makes." in
    Arg.(value & opt int 1 & info [ "seed" ] ~doc)
  in
  let chaos_scale_arg =
    let doc = "Workload scale used by the harness's collect requests." in
    Arg.(value & opt int 2 & info [ "scale" ] ~doc)
  in
  let output_arg =
    let doc = "Write the JSON report here (stdout otherwise)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  let action dir seed scale output =
    handle_errors (fun () ->
        let report = Daemon_chaos.run ~seed ~scale ~dir () in
        List.iter
          (fun (p : Daemon_chaos.phase) ->
            Format.eprintf "%-16s %s  %s@." p.Daemon_chaos.name
              (if p.Daemon_chaos.ok then "ok" else "FAIL")
              p.Daemon_chaos.detail)
          report.Daemon_chaos.phases;
        let json =
          Jsonx.to_string (Daemon_chaos.report_json report) ^ "\n"
        in
        (match output with
        | None -> print_string json
        | Some path -> write_file path json);
        if not report.Daemon_chaos.passed then exit 2)
  in
  let doc =
    "Boot a real $(b,pppd) in a scratch directory and attack it: crash \
     workers mid-request, stall them past their deadlines, abuse the \
     socket with garbage and dribbled frames, SIGKILL the daemon and \
     corrupt its store on disk. Asserts the daemon never corrupts the \
     store, never hangs a client, and serves byte-identical canonical \
     profiles after every restart. Prints a JSON report; exits non-zero \
     if any phase fails."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const action $ dir_arg $ seed_arg $ chaos_scale_arg $ output_arg)

(* {2 benches} *)

let benches_cmd =
  let action () =
    List.iter
      (fun (b : Ppp_workloads.Spec.bench) ->
        Format.printf "%-10s (%s)@." b.Ppp_workloads.Spec.bench_name
          (match b.Ppp_workloads.Spec.kind with
          | Ppp_workloads.Spec.Int -> "integer"
          | Ppp_workloads.Spec.Fp -> "floating-point"))
      Ppp_workloads.Spec.all
  in
  let doc = "List the built-in SPEC2000-shaped workloads." in
  Cmd.v (Cmd.info "benches" ~doc) Term.(const action $ const ())

let () =
  Printexc.record_backtrace true;
  let doc = "practical path profiling for dynamic optimizers" in
  let info = Cmd.info "pppc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            profile_cmd;
            stats_cmd;
            instrument_cmd;
            collect_cmd;
            merge_cmd;
            opt_cmd;
            dot_cmd;
            emit_cmd;
            report_cmd;
            compare_cmd;
            benches_cmd;
            fuzz_profile_cmd;
            daemon_cmd;
            chaos_cmd;
          ]))
