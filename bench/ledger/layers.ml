(* The traced run: one traced round of every workload, in a fixed order,
   with [Ppp_obs.Trace] and [Metrics] on, and the per-layer metrics read
   from the spans the ledger placed around public calls. A [_ms] metric
   is the total self time of its span over the whole traced run, so two
   traced runs of the same sizes compare directly. *)

open Common
module Trace = Ppp_obs.Trace
module Metrics = Ppp_obs.Metrics

type metric = {
  name : string;
  unit : string;
  span : string;
      (** the span the value is read from; ["unit"] is the traced unit of
          work of the workload named on the command line *)
}

let m name unit span = { name; unit; span }
let ms name span = m name "ms" span
let rate mode = m ("vm." ^ mode ^ ".minstr_s") "Minstr/s" ("vm." ^ mode)

let metrics =
  List.map rate [ "plain"; "edges"; "paths"; "ppp"; "sampled"; "tiered" ]
  @ [ ms "lower.program_ms" "lower.program";
      m "vm.dyn_instrs" "count" "vm.plain";
      m "vm.dyn_paths" "count" "vm.paths";
      m "vm.wall_overhead_pct" "%" "vm.ppp";
      ms "tier.plan_ms" "tier.plan";
      m "tier.swaps" "count" "vm.tiered";
      m "tier.instr_retired_pct" "%" "vm.tiered";
      ms "place.instrument_ms" "place.instrument";
      m "place.static_actions" "count" "place.instrument";
      ms "io.of_program_ms" "io.of_program";
      ms "io.to_string_ms" "io.to_string";
      ms "io.parse_ms" "io.parse";
      ms "io.merge_ms" "io.merge";
      ms "io.merge_decayed_ms" "io.merge_decayed";
      ms "io.decode_ms" "io.decode";
      ms "io.load_ms" "io.load";
      m "io.dump_kb" "KB" "io.to_string";
      ms "shard.map_ms" "shard.map";
      m "shard.busy_frac" "ratio" "shard.collect";
      ms "pipeline.reoptimize_ms" "pipeline.reoptimize";
      m "session.hit_ratio" "ratio" "pipeline.reoptimize";
      ms "ir.parse_ms" "ir.parse";
      ms "ops.handle_ms" "ops.handle";
      ms "daemon.ping_ms" "daemon.ping";
      ms "store.get_ms" "store.get";
      ms "store.put_ms" "store.put";
      ms "ops.encode_request_ms" "ops.encode_request";
      ms "ops.decode_reply_ms" "ops.decode_reply";
      ms "ops.encode_reply_ms" "ops.encode_reply";
      m "daemon.store_hit_ratio" "ratio" "daemon.request";
      m "daemon.reply_kb" "KB" "daemon.request";
      m "quality.overlap_pct" "%" "quality.overlap";
      m "model.sampled_overhead_pct" "%" "vm.sampled";
      m "model.tiered_overhead_pct" "%" "vm.tiered";
      m "trace.overhead_pct" "%" "unit";
      ms "host.probe_ms" "host.probe" ]

let self_ms span = 1000. *. Span.self_s span
let minstr span = float (Span.counted span) /. Span.self_s span /. 1e6
let pct num den = 100. *. float num /. float den

type result = {
  values : (string * float) list;  (** in [metrics] order *)
  checks : check list;
  snapshot : Metrics.snapshot;
}

let tracing on =
  if on then begin
    Metrics.set_enabled true;
    Metrics.reset ();
    Trace.start ();
    Trace.label_process "ledger";
    Span.start ()
  end
  else begin
    Span.stop ();
    Trace.stop ();
    Metrics.set_enabled false
  end

(* [trace_overhead_pct] was measured on [workload]'s own unit of work. *)
let run sizes ~seed ~workload ~trace_overhead_pct ~trace_file =
  tracing true;
  let probe = Span.with_ "host.probe" host_probe_ms in
  let ex = Collect.traced Collect.Exact sizes ~seed in
  let sa = Collect.traced Collect.Sampled sizes ~seed in
  let overlap =
    Span.with_ "quality.overlap" (fun () ->
        Collect.overlap_pct ~exact:ex.Collect.dump ~sampled:sa.Collect.dump)
  in
  let tiered_checks = Tiered.traced sizes in
  let d = Daemon.traced sizes ~seed in
  let snapshot = Metrics.snapshot () in
  tracing false;
  Trace.write_file trace_file;
  let unit_span =
    match workload with
    | "collect-exact" | "collect-sampled" -> workload ^ ".sharded"
    | "tiered" -> "tiered.round"
    | daemon -> daemon ^ ".cycle"
  in
  let value mt =
    match mt.name with
    | "vm.dyn_instrs" -> float (Span.counted "vm.plain")
    | "vm.dyn_paths" -> float (Span.counted "vm.paths.paths")
    | "vm.wall_overhead_pct" ->
        100. *. ((Span.self_s "vm.ppp" /. Span.self_s "vm.plain") -. 1.)
    | "tier.swaps" -> float (Span.counted "tier.swaps")
    | "tier.instr_retired_pct" ->
        100. -. pct (Span.counted "vm.tiered.instr_cost") (Span.counted "vm.ppp.instr_cost")
    | "place.static_actions" -> float (Span.counted "place.static_actions")
    | "io.dump_kb" -> float (String.length ex.Collect.dump) /. 1024.
    | "shard.busy_frac" -> ex.Collect.busy_frac
    | "session.hit_ratio" ->
        float d.Daemon.session_hits
        /. float (d.Daemon.session_hits + d.Daemon.session_misses)
    | "daemon.store_hit_ratio" -> d.Daemon.hit_ratio
    | "daemon.reply_kb" -> d.Daemon.reply_kb
    | "quality.overlap_pct" -> overlap
    | "model.sampled_overhead_pct" ->
        pct (Span.counted "vm.sampled.instr_cost") (Span.counted "vm.sampled.base_cost")
    | "model.tiered_overhead_pct" ->
        pct (Span.counted "vm.tiered.instr_cost") (Span.counted "vm.tiered.base_cost")
    | "trace.overhead_pct" -> trace_overhead_pct
    | "host.probe_ms" -> probe
    | _ when mt.unit = "Minstr/s" -> minstr mt.span
    | _ -> self_ms mt.span
  in
  let span_checks =
    List.map
      (fun mt ->
        let span = if mt.span = "unit" then unit_span else mt.span in
        ("span " ^ span ^ " recorded for " ^ mt.name, Span.calls span > 0))
      metrics
  in
  {
    values = List.map (fun mt -> (mt.name, value mt)) metrics;
    checks =
      ex.Collect.checks @ sa.Collect.checks @ tiered_checks @ d.Daemon.checks
      @ span_checks;
    snapshot;
  }
