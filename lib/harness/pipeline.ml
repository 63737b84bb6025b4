module Graph = Ppp_cfg.Graph
module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Edge_profile = Ppp_profile.Edge_profile
module Path_profile = Ppp_profile.Path_profile
module Path = Ppp_profile.Path
module Metric = Ppp_profile.Metric
module Interp = Ppp_interp.Interp
module Instr_rt = Ppp_interp.Instr_rt
module Routine_ctx = Ppp_flow.Routine_ctx
module Flow_dp = Ppp_flow.Flow_dp
module Score = Ppp_flow.Score
module Config = Ppp_core.Config
module Instrument = Ppp_core.Instrument
module Numbering = Ppp_core.Numbering
module Trace = Ppp_obs.Trace
module Diagnostic = Ppp_resilience.Diagnostic
module Profile_io = Ppp_profile.Profile_io
module Session = Ppp_session.Session
module Superblock = Ppp_opt.Superblock
module Layout = Ppp_interp.Layout
module Sampling = Ppp_interp.Sampling

let hot_threshold = 0.00125 (* Section 8.1: 0.125% of total program flow *)
let metric = Metric.Branch_flow
let reconstruct_cap = 20_000 (* per routine, for estimated-profile paths *)

(* Which profile-guided transformations the preparation applies on top
   of inline + unroll. Off by default: superblock formation needs a
   decoded path profile to drive it, and layout changes what the bench
   harness measures, so both are explicit opt-ins (pppc --superblocks /
   --layout, Config gating in the driver). *)
type opt_flags = { superblocks : bool; layout : bool; max_trace : int }

let default_flags = { superblocks = false; layout = false; max_trace = 32 }

type prepared = {
  bench_name : string;
  original : Ir.program;
  optimized : Ir.program;
  orig_outcome : Interp.outcome;
  base_outcome : Interp.outcome;
  inline_stats : Ppp_opt.Inline.stats;
  unroll_stats : Ppp_opt.Unroll.stats;
  superblock_stats : Superblock.stats;
  layout : (string, int array) Hashtbl.t option;
      (* block emission orders derived from the base run's path profile
         (when the [layout] flag was on and any routine deviates from
         source order); a hint for [Interp.config], never semantics *)
  confidence : float;
  diagnostics : Diagnostic.t list;
  session : Session.t;
  view_memo : (string, Cfg_view.t) Hashtbl.t;
}

(* The full decision log of a preparation, in pass order: what the
   optimizers actually did, as typed records rather than scalar stats.
   Superblock formation runs first (it consumes the decoded profile
   before inlining changes the CFGs the paths refer to). *)
let decisions prepared =
  prepared.superblock_stats.Superblock.decisions
  @ prepared.inline_stats.Ppp_opt.Inline.decisions
  @ prepared.unroll_stats.Ppp_opt.Unroll.decisions

(* A run that exhausts its fuel is not fatal: the profile gathered so far
   is still a (truncated) sample. Record the fact and carry on. *)
let fuel_diags phase (o : Interp.outcome) =
  match o.Interp.termination with
  | Interp.Finished -> []
  | Interp.Out_of_fuel { stack_depth } ->
      [
        Diagnostic.make ~severity:Diagnostic.Warning Diagnostic.Exhausted
          (Printf.sprintf
             "%s run exhausted its fuel with %d live activations; continuing \
              with the partial profile"
             phase stack_depth);
      ]

(* The session memoizes views once per fingerprint; the extra
   name-indexed memo keeps the frequent [views prep name] lookups (and
   disabled-session runs, which memoize nothing) away from repeated
   fingerprint hashing in scoring loops. *)
let views prepared name =
  match Hashtbl.find_opt prepared.view_memo name with
  | Some v -> v
  | None ->
      let v =
        Session.view prepared.session (Ir.routine prepared.optimized name)
      in
      Hashtbl.replace prepared.view_memo name v;
      v

let block_freq_fn session p ep =
  let cache = Hashtbl.create 17 in
  fun ~routine ~block ->
    let freqs =
      match Hashtbl.find_opt cache routine with
      | Some f -> f
      | None ->
          let r = Ir.routine p routine in
          let view = Session.view session r in
          let g = Cfg_view.graph view in
          let prof = Edge_profile.routine ep routine in
          let f =
            Array.init (Array.length r.Ir.blocks) (fun b ->
                let inflow =
                  List.fold_left
                    (fun a e -> a + Edge_profile.freq prof e)
                    0 (Graph.in_edges g b)
                in
                if b = 0 then inflow + Edge_profile.entry_count ep p routine
                else inflow)
          in
          Hashtbl.replace cache routine f;
          f
    in
    freqs.(block)

let make_session ?session ~name () =
  match session with Some s -> s | None -> Session.create ~name ()

(* One (hottest) trace per routine from hot-path triples, with a total
   tie-break (flow desc, then the path itself) so formation never
   depends on hash-iteration order. Sorted by routine name on the way
   out for the same reason. *)
let hottest_per_routine entries =
  let best = Hashtbl.create 17 in
  List.iter
    (fun (name, path, flow) ->
      match Hashtbl.find_opt best name with
      | Some (p', f') when f' > flow || (f' = flow && compare p' path <= 0) ->
          ()
      | _ -> Hashtbl.replace best name (path, flow))
    entries;
  Hashtbl.fold (fun name (path, flow) acc -> (name, path, flow) :: acc) best []
  |> List.sort compare

(* The path-guided block layout of [p] under recorded [profile]: one
   emission order per routine whose hottest trace deviates from source
   order (see [Ppp_interp.Layout]), memoized in the session per
   (routine fingerprint, profile identity). [None] when every routine is
   already laid out hot-path-first — the common case for straight-line
   benches — so the lowering cache is shared with layout-free runs. *)
let layout_table session (p : Ir.program) (profile : Path_profile.program) =
  let tbl = Hashtbl.create 17 in
  List.iter
    (fun (r : Ir.routine) ->
      match Path_profile.routine profile r.Ir.name with
      | exception Not_found -> ()
      | t ->
          if Path_profile.num_distinct t > 0 then (
            let order =
              Session.layout session ~paths:profile r ~compute:(fun () ->
                  let view = Session.view session r in
                  let entries =
                    Path_profile.fold t ~init:[] ~f:(fun acc path n ->
                        let b = Path.branches view path in
                        (path, Metric.flow metric ~freq:n ~branches:b) :: acc)
                  in
                  Layout.order_for ~view entries)
            in
            match order with
            | Some o -> Hashtbl.replace tbl r.Ir.name o
            | None -> ()))
    p.Ir.routines;
  if Hashtbl.length tbl = 0 then None else Some tbl

let layout_of_flags ~(flags : opt_flags) session p (o : Interp.outcome) =
  if not flags.layout then None
  else
    match o.Interp.path_profile with
    | None -> None
    | Some profile -> layout_table session p profile

(* Straighten the hottest decoded trace of each routine (Superblock) and
   re-profile the transformed program: the loaded edge counts describe
   bodies that no longer exist once a trace is duplicated, so a changed
   program gets a fresh edge profile before inlining consumes it.
   Mismatched or stale traces degrade to diagnostics, never errors. *)
let superblock_phase ~(flags : opt_flags) ~session ~(loaded : Profile_io.loaded)
    p =
  if not flags.superblocks then (p, Superblock.empty_stats, loaded.Profile_io.edges, [])
  else begin
    let views name = Session.view session (Ir.routine p name) in
    let hot =
      Path_profile.hot_paths loaded.Profile_io.paths ~views ~metric
        ~threshold:hot_threshold
    in
    let picked = hottest_per_routine hot in
    let hot_paths = List.map (fun (n, path, _) -> (n, path)) picked in
    let path_weights = List.map (fun (n, _, f) -> (n, f)) picked in
    let p', stats =
      Trace.with_span "superblock" (fun () ->
          Superblock.form ~max_trace:flags.max_trace ~path_weights p ~hot_paths)
    in
    let diags =
      List.map
        (fun m ->
          Diagnostic.errorf ~severity:Diagnostic.Warning
            ~routine:m.Superblock.mm_routine Diagnostic.Stale "%s"
            (Format.asprintf "%a" Superblock.pp_mismatch m))
        stats.Superblock.mismatches
    in
    if stats.Superblock.touched = [] then
      (p, stats, loaded.Profile_io.edges, diags)
    else begin
      ignore (Session.sync session p');
      let o = Trace.with_span "sb-profile" (fun () -> Session.run session p') in
      (p', stats, Option.get o.Interp.edge_profile, diags @ fuel_diags "sb-profile" o)
    end
  end

(* Without a [profile] the preparation collects its own edge profile
   first; with one (loaded, possibly salvaged from a stale dump) the
   loaded counts drive it, after superblock formation when the flag is
   on. Either way, inline, re-profile, unroll and run the result. *)
let prepare ?session ?(flags = default_flags) ?profile ~name p =
  let session = make_session ?session ~name () in
  let span = if Option.is_none profile then "prepare" else "prepare-with-profile" in
  Trace.with_span ~args:[ ("bench", name) ] span @@ fun () ->
  ignore (Session.sync session p);
  let src, superblock_stats, ep0, edge_run, diagnostics =
    match profile with
    | None ->
        let o = Trace.with_span "edge-profile" (fun () -> Session.run session p) in
        ( p,
          Superblock.empty_stats,
          Option.get o.Interp.edge_profile,
          Some o,
          fuel_diags "edge-profile" o )
    | Some loaded ->
        let p', stats, ep, sb_diags = superblock_phase ~flags ~session ~loaded p in
        (p', stats, ep, None, loaded.Profile_io.diagnostics @ sb_diags)
  in
  let confidence =
    Option.fold ~none:1.0 ~some:(fun l -> l.Profile_io.matched_fraction) profile
  in
  (* Confidence-weighted hotness: salvaged counts must clear a higher bar
     before they justify inlining a call site. At confidence 1.0 the bar
     is the inliner's default, 16. *)
  let min_site_freq =
    int_of_float (Float.ceil (16.0 /. Float.max 0.05 confidence))
  in
  let inlined, inline_stats =
    Trace.with_span "inline" (fun () ->
        Ppp_opt.Inline.run ~min_site_freq src
          ~block_freq:(block_freq_fn session src ep0))
  in
  ignore (Session.sync session inlined);
  let o1 = Trace.with_span "re-profile" (fun () -> Session.run session inlined) in
  let optimized, unroll_stats =
    Trace.with_span "unroll" (fun () ->
        Ppp_opt.Unroll.run inlined ~edge_profile:(Option.get o1.Interp.edge_profile))
  in
  ignore (Session.sync session optimized);
  let base_outcome =
    Trace.with_span "base-run" (fun () -> Session.run session optimized)
  in
  {
    bench_name = name;
    original = p;
    optimized;
    orig_outcome = Option.value edge_run ~default:o1;
    base_outcome;
    inline_stats;
    unroll_stats;
    superblock_stats;
    layout = layout_of_flags ~flags session optimized base_outcome;
    confidence;
    diagnostics =
      diagnostics @ fuel_diags "re-profile" o1 @ fuel_diags "base" base_outcome;
    session;
    view_memo = Hashtbl.create 17;
  }

let prepare_unoptimized ?session ~name p =
  let session = make_session ?session ~name () in
  Trace.with_span ~args:[ ("bench", name) ] "prepare" @@ fun () ->
  ignore (Session.sync session p);
  let orig_outcome =
    Trace.with_span "edge-profile" (fun () -> Session.run session p)
  in
  {
    bench_name = name;
    original = p;
    optimized = p;
    orig_outcome;
    base_outcome = orig_outcome;
    inline_stats =
      {
        Ppp_opt.Inline.sites_inlined = 0;
        dynamic_calls_inlined = 0;
        dynamic_calls_total = 0;
        size_before = Ir.program_size p;
        size_after = Ir.program_size p;
        touched = [];
        decisions = [];
      };
    unroll_stats =
      {
        Ppp_opt.Unroll.loops_unrolled = 0;
        loops_seen = 0;
        avg_dynamic_factor = 1.0;
        touched = [];
        decisions = [];
      };
    superblock_stats = Superblock.empty_stats;
    layout = None;
    confidence = 1.0;
    diagnostics = fuel_diags "edge-profile" orig_outcome;
    session;
    view_memo = Hashtbl.create 17;
  }

let actual_profile prepared = Option.get prepared.base_outcome.Interp.path_profile

let total_flow prepared m =
  Path_profile.program_flow (actual_profile prepared)
    ~views:(views prepared) m

type path_stats = { dyn_paths : int; avg_branches : float; avg_instrs : float }

let path_stats_of_outcome ?session p (o : Interp.outcome) =
  let profile = Option.get o.Interp.path_profile in
  let memo = Hashtbl.create 17 in
  let views name =
    match Hashtbl.find_opt memo name with
    | Some v -> v
    | None ->
        let r = Ir.routine p name in
        let v =
          match session with
          | Some s -> Session.view s r
          | None -> Cfg_view.of_routine r
        in
        Hashtbl.replace memo name v;
        v
  in
  let unit_total = Path_profile.program_flow profile ~views Metric.Unit_flow in
  let branch_total = Path_profile.program_flow profile ~views Metric.Branch_flow in
  {
    dyn_paths = o.Interp.dyn_paths;
    avg_branches =
      (if unit_total = 0 then 0.0
       else float_of_int branch_total /. float_of_int unit_total);
    avg_instrs =
      (if o.Interp.dyn_paths = 0 then 0.0
       else float_of_int o.Interp.dyn_instrs /. float_of_int o.Interp.dyn_paths);
  }

type hot_stats = { distinct_paths : int; hot_count : int; hot_flow_pct : float }

let hot_stats prepared ~threshold =
  let actual = actual_profile prepared in
  let total = total_flow prepared metric in
  let hot =
    Score.hot_actual ~actual ~views:(views prepared) ~metric ~threshold
  in
  let hot_flow = List.fold_left (fun a (_, _, f) -> a + f) 0 hot in
  {
    distinct_paths = Path_profile.program_distinct actual;
    hot_count = List.length hot;
    hot_flow_pct =
      (if total = 0 then 0.0 else 100.0 *. float_of_int hot_flow /. float_of_int total);
  }

type evaluation = {
  config_name : string;
  overhead : float;
  accuracy : float;
  coverage : float;
  frac_paths_instrumented : float;
  frac_paths_hashed : float;
  static_actions : int;
  routines_instrumented : int;
  routines_total : int;
  estimated : Score.est list;
      (* the method's estimated profile, kept so quality analysis can
         compare it path-by-path against the measured truth *)
}

(* The flow context of a routine of [prepared.optimized] under the base
   edge profile, shared through the session across every method's
   evaluation (and with the instrumenter's planning). *)
let ctx_of_routine prepared name =
  let ep = Option.get prepared.base_outcome.Interp.edge_profile in
  Session.ctx prepared.session ~ep (Ir.routine prepared.optimized name)

(* Potential-flow estimated profile for a set of routines (used for edge
   profiling, and for TPP/PPP when they instrument nothing at all). *)
let potential_estimates prepared routine_names =
  List.concat_map
    (fun name ->
      let ctx = ctx_of_routine prepared name in
      Flow_dp.potential_hot_paths ctx ~max_paths:reconstruct_cap
      |> List.map (fun (dag_path, f, b) ->
             {
               Score.routine = name;
               path = Routine_ctx.cfg_path_of_dag_path ctx dag_path;
               flow = Metric.flow metric ~freq:f ~branches:b;
             }))
    routine_names

let routine_names p = List.map (fun (r : Ir.routine) -> r.Ir.name) p.Ir.routines

let definite_total prepared name =
  let ctx = ctx_of_routine prepared name in
  let dp = Session.definite prepared.session ctx in
  Flow_dp.total dp ~metric

let evaluate_edge_profile prepared =
  Trace.with_span ~args:[ ("config", "edge") ] "evaluate" @@ fun () ->
  let actual = actual_profile prepared in
  let estimated =
    Trace.with_span "estimate" (fun () ->
        potential_estimates prepared (routine_names prepared.optimized))
  in
  let accuracy =
    Trace.with_span "score" (fun () ->
        Score.accuracy ~actual ~views:(views prepared) ~metric
          ~threshold:hot_threshold ~estimated)
  in
  let df_total =
    List.fold_left
      (fun acc name -> acc + definite_total prepared name)
      0
      (routine_names prepared.optimized)
  in
  let total = total_flow prepared metric in
  {
    config_name = "edge";
    overhead = 0.0 (* Section 2: negligible with sampling or hardware *);
    accuracy;
    coverage =
      Score.coverage ~total_actual_flow:total ~measured_actual_flow:0
        ~definite_uninstr:df_total ~overcount:0;
    frac_paths_instrumented = 0.0;
    frac_paths_hashed = 0.0;
    static_actions = 0;
    routines_instrumented = 0;
    routines_total = List.length prepared.optimized.Ir.routines;
    estimated;
  }

(* Instrument [prepared.optimized] through the session: flow contexts and
   definite-flow DPs are memoized artifacts, and whole placement
   decisions are reused when the session has already planned this
   routine. [mode] selects the reuse rule (see {!Session.placement_mode});
   [on_reuse]/[on_plan] let callers count what happened. *)
let instrument_via_session ?(mode = Session.Exact) ?(on_reuse = fun _ -> ())
    ?(on_plan = fun _ -> ()) prepared (config : Config.t) =
  let p = prepared.optimized in
  let ep = Option.get prepared.base_outcome.Interp.edge_profile in
  let session = prepared.session in
  let config_name = config.Config.name in
  Instrument.instrument
    ~plan_ctx:(fun (r : Ir.routine) -> Session.ctx session ~ep r)
    ~definite:(Session.definite session)
    ~reuse:(fun r ->
      match Session.placement_find session ~mode ~config_name ~ep r with
      | Some plan ->
          on_reuse r.Ir.name;
          Some plan
      | None -> None)
    ~store:(fun r plan ->
      on_plan r.Ir.name;
      Session.placement_store session ~config_name ~ep r plan)
    p ep config

let evaluate ?(overflow_policy = Instr_rt.Table.Drop) ?sampling prepared
    (config : Config.t) =
  (* A partially-trusted profile (stale salvage) degrades the placement
     thresholds instead of being consumed at face value. *)
  let config = Config.degrade ~confidence:prepared.confidence config in
  Trace.with_span ~args:[ ("config", config.Config.name) ] "evaluate" @@ fun () ->
  let p = prepared.optimized in
  let inst =
    Trace.with_span "instrument" (fun () ->
        instrument_via_session prepared config)
  in
  let instr_outcome =
    Trace.with_span "overhead-run" (fun () ->
        Interp.run
          ?cache:(Session.lower_cache prepared.session)
          ~config:
            {
              Interp.default_config with
              instrumentation = Some inst.Instrument.rt;
              overflow_policy;
              sampling;
            }
          p)
  in
  let overhead = Interp.overhead instr_outcome in
  (* Sampled tables hold only the observed fraction of each count;
     recover full-run estimates with the inverse-rate estimator before
     scoring, so accuracy/coverage compare like with like. *)
  let sample_denom =
    match sampling with Some s -> s.Sampling.denom | None -> 1
  in
  let recovered c = Instr_rt.scaled_count ~denom:sample_denom c in
  let actual = actual_profile prepared in
  let tables = Option.get instr_outcome.Interp.instr_state in
  let ctx_of name =
    (Hashtbl.find inst.Instrument.plans name).Instrument.ctx
  in
  Trace.with_span "score" @@ fun () ->
  (* Measured flow (for the overcount penalty): decoded counter totals,
     summed while the measured estimates are built. *)
  let mf = ref 0 in
  (* Estimated profile (Section 5): measured flow for instrumented paths
     plus definite flow for the rest; if nothing at all was instrumented,
     fall back to the potential-flow profile (Section 6.1). *)
  let estimated =
    Trace.with_span "estimate" @@ fun () ->
    if not (Instrument.has_any_instrumentation inst) then
      potential_estimates prepared (routine_names p)
    else
      List.concat_map
        (fun name ->
          let plan = Hashtbl.find inst.Instrument.plans name in
          let measured =
            match Hashtbl.find_opt tables name with
            | None -> []
            | Some table ->
                let acc = ref [] in
                Instr_rt.Table.iter_nonzero table (fun k c ->
                    match Instrument.decoded_path plan k with
                    | Some path ->
                        let b = Path.branches (views prepared name) path in
                        let flow =
                          Metric.flow metric ~freq:(recovered c) ~branches:b
                        in
                        mf := !mf + flow;
                        acc := { Score.routine = name; path; flow } :: !acc
                    | None -> ());
                !acc
          in
          let uninstrumented =
            let ctx = ctx_of name in
            let dp = Session.definite prepared.session ctx in
            Flow_dp.reconstruct dp ~cutoff:(-1) ~max_paths:reconstruct_cap
            |> List.filter_map (fun (dag_path, f, b) ->
                   let path = Routine_ctx.cfg_path_of_dag_path ctx dag_path in
                   match Instrument.path_status plan path with
                   | `Instrumented _ -> None (* measured above *)
                   | `Uninstrumented ->
                       Some
                         {
                           Score.routine = name;
                           path;
                           flow = Metric.flow metric ~freq:f ~branches:b;
                         })
          in
          measured @ uninstrumented)
        (routine_names p)
  in
  let accuracy =
    Score.accuracy ~actual ~views:(views prepared) ~metric ~threshold:hot_threshold
      ~estimated
  in
  (* Coverage (Section 6.2). *)
  let total = total_flow prepared metric in
  let f_instr = ref 0 in
  let df_uninstr = ref 0 in
  let unit_instr = ref 0 in
  let unit_hashed = ref 0 in
  let unit_total = ref 0 in
  Path_profile.iter_routines actual (fun name t ->
      let plan = Hashtbl.find inst.Instrument.plans name in
      let uses_hash =
        match plan.Instrument.decision with
        | Instrument.Instrumented { uses_hash; _ } -> uses_hash
        | Instrument.Uninstrumented _ -> false
      in
      let view = views prepared name in
      let ctx = ctx_of name in
      Path_profile.iter t (fun path n ->
          let b = Path.branches view path in
          unit_total := !unit_total + n;
          match Instrument.path_status plan path with
          | `Instrumented _ ->
              f_instr := !f_instr + Metric.flow metric ~freq:n ~branches:b;
              unit_instr := !unit_instr + n;
              if uses_hash then unit_hashed := !unit_hashed + n
          | `Uninstrumented ->
              let df =
                Flow_dp.definite_of_path ctx (Routine_ctx.dag_path_of_cfg_path ctx path)
              in
              (* Definite flow never exceeds the actual frequency. *)
              df_uninstr := !df_uninstr + Metric.flow metric ~freq:df ~branches:b));
  let overcount = max 0 (!mf - !f_instr) in
  let coverage =
    Score.coverage ~total_actual_flow:total ~measured_actual_flow:!f_instr
      ~definite_uninstr:!df_uninstr ~overcount
  in
  let routines_instrumented =
    Hashtbl.fold
      (fun _ plan acc ->
        match plan.Instrument.decision with
        | Instrument.Instrumented _ -> acc + 1
        | Instrument.Uninstrumented _ -> acc)
      inst.Instrument.plans 0
  in
  {
    config_name = config.Config.name;
    overhead;
    accuracy;
    coverage;
    frac_paths_instrumented =
      (if !unit_total = 0 then 0.0
       else float_of_int !unit_instr /. float_of_int !unit_total);
    frac_paths_hashed =
      (if !unit_total = 0 then 0.0
       else float_of_int !unit_hashed /. float_of_int !unit_total);
    static_actions = Instrument.static_instr_count inst;
    routines_instrumented;
    routines_total = List.length p.Ir.routines;
    estimated;
  }

(* {2 Tiered execution}

   The in-VM analogue of the two-pass flow above: instead of an
   instrumented run followed by a separate optimized run, one run starts
   instrumented and the tier controller swaps hot routines onto
   optimized re-lowerings as their counters cross the threshold. The
   planner below is the incremental slice of the session pipeline that
   the controller invokes mid-run, on just the firing routine: decode
   its live path counters, weight them with the paper's flow metric,
   and derive a hot-path-first block order. *)

let tier_planner prepared (inst : Instrument.t) : Ppp_interp.Tier.planner =
 fun ~routine ~counters ->
  match Hashtbl.find_opt inst.Instrument.plans routine with
  | None -> None
  | Some plan ->
      let view = views prepared routine in
      let entries =
        List.filter_map
          (fun (k, c) ->
            match Instrument.decoded_path plan k with
            | Some path ->
                let b = Path.branches view path in
                Some (path, Metric.flow metric ~freq:c ~branches:b)
            | None -> None)
          counters
      in
      Layout.order_for ~view entries

type tiered = {
  t_outcome : Interp.outcome;
  t_decisions : Ppp_interp.Tier.decision list;
  t_invalidated : string list;
  t_instrumented : Ppp_core.Instrument.t;
}

let tiered_run ?(threshold = Ppp_interp.Tier.default_threshold)
    ?(budget = Ppp_interp.Tier.default_budget) ?sampling ?engine prepared
    (config : Config.t) =
  let config = Config.degrade ~confidence:prepared.confidence config in
  Trace.with_span ~args:[ ("config", config.Config.name) ] "tiered-run"
  @@ fun () ->
  let inst = instrument_via_session prepared config in
  let spec =
    Ppp_interp.Tier.spec ~threshold ~budget
      ~plan:(tier_planner prepared inst) ()
  in
  let outcome =
    Interp.run ?engine
      ?cache:(Session.lower_cache prepared.session)
      ~config:
        {
          Interp.default_config with
          instrumentation = Some inst.Instrument.rt;
          sampling;
          tier = Some spec;
        }
      prepared.optimized
  in
  (* Every swapped routine's profile froze mid-run, so its
     profile-derived session artifacts are stale: invalidate exactly
     that set, nothing else. *)
  let swapped =
    List.map
      (fun (d : Ppp_interp.Tier.decision) -> d.Ppp_interp.Tier.d_routine)
      outcome.Interp.tier_decisions
  in
  Session.invalidate prepared.session swapped;
  {
    t_outcome = outcome;
    t_decisions = outcome.Interp.tier_decisions;
    t_invalidated = swapped;
    t_instrumented = inst;
  }

(* {2 Iterative re-optimization} *)

type generation = {
  gen : int;
  prep : prepared;
  dirty : string list;
  reinstrumented : int;
  reused_plans : int;
  matched_fraction : float;
  instr_overhead : float;
  instr_cost : int;
  instr_base_cost : int;
  decisions : Ppp_opt.Decision.t list;
  decision_diff : Ppp_opt.Decision.diff;
      (* vs the previous generation's log; generation 1 diffs against the
         empty log (everything "added", stability vacuously 1.0) *)
}

(* The union of the optimizers' touched sets, in program order of the
   generation's optimized program. *)
let dirty_of prepared =
  let touched =
    prepared.superblock_stats.Superblock.touched
    @ prepared.inline_stats.Ppp_opt.Inline.touched
    @ prepared.unroll_stats.Ppp_opt.Unroll.touched
  in
  List.filter_map
    (fun (r : Ir.routine) ->
      if List.mem r.Ir.name touched then Some r.Ir.name else None)
    prepared.optimized.Ir.routines

let reoptimize ?session ?(config = Config.ppp) ?(flags = default_flags)
    ?(iterations = 1) ?sampling ?decay ~name p0 =
  (match decay with
  | Some d when d <= 0.0 || d > 1.0 ->
      invalid_arg "Pipeline.reoptimize: decay must be in (0, 1]"
  | _ -> ());
  (* Drift mode: instead of handing each generation exactly the previous
     generation's profile, accumulate every generation's dump (possibly
     collected under sampling) and feed the next generation their
     age-decayed merge — the fleet's profile store, not the lab's. *)
  let drift = sampling <> None || decay <> None in
  let history = ref [] (* Raw dumps, newest first *) in
  let session = make_session ?session ~name () in
  let gens = ref [] in
  let cur = ref p0 in
  let prev = ref None in
  for gen = 1 to iterations do
    let prep, matched_fraction =
      match !prev with
      | None -> (prepare ~session ~flags ~name !cur, 1.0)
      | Some (p : prepared) -> (
          (* Hand the previous generation's profile on through the stale
             matcher, as a staged optimizer with an offline profile store
             would: the raw dump its text would hold, loaded exactly as
             that text would load. On an unchanged program it matches
             exactly (fraction 1.0). *)
          let handed =
            Trace.with_span "profile-handoff" @@ fun () ->
            let raw =
              if drift then
                Profile_io.Raw.merge_decayed
                  ~decay:(Option.value ~default:1.0 decay)
                  (List.rev !history)
              else
                Profile_io.Raw.of_program
                  ?edges:p.base_outcome.Interp.edge_profile
                  ?paths:p.base_outcome.Interp.path_profile p.optimized
            in
            Profile_io.of_raw !cur raw
          in
          match handed with
          | Ok loaded ->
              ( prepare ~session ~flags ~profile:loaded ~name !cur,
                loaded.Profile_io.matched_fraction )
          | Error _ -> (prepare ~session ~flags ~name !cur, 0.0))
    in
    (* Re-instrument: sticky reuse keeps every untouched routine's plan,
       so only routines the optimizers dirtied are re-planned. *)
    let reused = ref 0 and planned = ref 0 in
    let inst =
      Trace.with_span "reinstrument" @@ fun () ->
      instrument_via_session ~mode:Session.Sticky
        ~on_reuse:(fun _ -> incr reused)
        ~on_plan:(fun _ -> incr planned)
        prep
        (Config.degrade ~confidence:prep.confidence config)
    in
    let instr_outcome =
      (* The instrumented run executes under the generation's layout (if
         any): the loop exercises the VM exactly as a deployed optimizer
         would, and the differential suite keeps layout honest. Under
         [sampling] the collector runs bursty, so [instr_overhead]
         reflects the sampled cost. Only its costs and tables are read,
         so it neither counts edges nor traces paths. *)
      Trace.with_span "instrumented-run" @@ fun () ->
      Interp.run
        ?cache:(Session.lower_cache session)
        ~config:
          {
            Interp.default_config with
            collect_edges = false;
            trace_paths = false;
            instrumentation = Some inst.Instrument.rt;
            layout = prep.layout;
            sampling;
          }
        prep.optimized
    in
    if drift then begin
      (* What this generation contributes to the profile store: sampled
         estimates when a sampler ran, the measured truth otherwise.
         Edge counts ride along at full fidelity either way — the paper
         takes cheap edge profiling as given; sampling stresses the
         expensive path tables. *)
      let paths =
        match sampling with
        | None -> prep.base_outcome.Interp.path_profile
        | Some s ->
            Some
              (Instrument.decoded_profile ~denom:s.Sampling.denom inst
                 instr_outcome.Interp.instr_state prep.optimized)
      in
      history :=
        Profile_io.Raw.of_program ?edges:prep.base_outcome.Interp.edge_profile
          ?paths prep.optimized
        :: !history
    end;
    let g =
      Trace.with_span "decisions" @@ fun () ->
      let gen_decisions = decisions prep in
      let prev_decisions =
        match !prev with None -> [] | Some p -> decisions p
      in
      {
        gen;
        prep;
        dirty = dirty_of prep;
        reinstrumented = !planned;
        reused_plans = !reused;
        matched_fraction;
        instr_overhead = Interp.overhead instr_outcome;
        instr_cost = instr_outcome.Interp.instr_cost;
        instr_base_cost = instr_outcome.Interp.base_cost;
        decisions = gen_decisions;
        decision_diff =
          Ppp_opt.Decision.diff ~previous:prev_decisions
            ~current:gen_decisions;
      }
    in
    gens := g :: !gens;
    prev := Some prep;
    cur := prep.optimized
  done;
  List.rev !gens

(* {2 Layout evaluation}

   The report-facing answer to "what would path-guided layout buy here,
   and does the paper's loop actually close?" — pure cost-model
   arithmetic plus one deterministic VM run, so it is safe inside the
   byte-identical bench document. *)

type layout_proxy = {
  lp_transfers : int;
  lp_taken : int;
  lp_local : int;
  lp_score : float;
}

let layout_proxy_of (pr : Layout.proxy) =
  {
    lp_transfers = pr.Layout.transfers;
    lp_taken = pr.Layout.taken;
    lp_local = pr.Layout.local;
    lp_score =
      Score.layout_score ~transfers:pr.Layout.transfers ~taken:pr.Layout.taken
        ~local:pr.Layout.local;
  }

type closed_loop = {
  cl_routines_straightened : int;
  cl_duplicated : int;
  cl_merged : int;
  cl_mismatches : int;
  cl_base : layout_proxy;
  cl_laid : layout_proxy;
  cl_taken_drop : bool;
  cl_improvement : float;
}

type layout_eval = {
  le_base : layout_proxy;
  le_oracle : layout_proxy;
  le_oracle_improvement : float;
  le_methods : (string * layout_proxy * float) list;
  le_closed_loop : closed_loop;
}

(* Lay out from an estimated profile: the triples a method's [estimated]
   list yields, hottest trace per routine (see [Layout.of_hot_paths]). *)
let layout_from_estimates prepared ests =
  let entries =
    List.map (fun e -> (e.Score.routine, e.Score.path, e.Score.flow)) ests
  in
  let tbl = Layout.of_hot_paths ~views:(views prepared) entries in
  if Hashtbl.length tbl = 0 then None else Some tbl

let layout_eval prepared ~estimates =
  let p = prepared.optimized in
  let ep = Option.get prepared.base_outcome.Interp.edge_profile in
  let base = layout_proxy_of (Layout.program_proxy p ~ep) in
  let improvement candidate =
    Score.layout_improvement ~base:base.lp_score ~candidate:candidate.lp_score
  in
  (* Oracle: the layout the measured truth dictates — the ceiling any
     estimated profile can reach on this program. *)
  let oracle_layout = layout_table prepared.session p (actual_profile prepared) in
  let oracle = layout_proxy_of (Layout.program_proxy ?layout:oracle_layout p ~ep) in
  let methods =
    List.map
      (fun (name, ests) ->
        let layout = layout_from_estimates prepared ests in
        let proxy = layout_proxy_of (Layout.program_proxy ?layout p ~ep) in
        (name, proxy, improvement proxy))
      estimates
  in
  (* Close the loop end to end: straighten the hottest estimated trace
     per routine (PPP's estimates when given, else the measured truth),
     run the transformed program fresh, lay it out from that run's own
     path profile, and compare proxies on its own edge frequencies. *)
  let driver =
    match List.assoc_opt "ppp" estimates with
    | Some ests when ests <> [] ->
        List.map (fun e -> (e.Score.routine, e.Score.path, e.Score.flow)) ests
    | _ ->
        Score.hot_actual ~actual:(actual_profile prepared)
          ~views:(views prepared) ~metric ~threshold:hot_threshold
  in
  let picked = hottest_per_routine driver in
  let hot_paths = List.map (fun (n, path, _) -> (n, path)) picked in
  let path_weights = List.map (fun (n, _, f) -> (n, f)) picked in
  let p', stats = Superblock.form ~path_weights p ~hot_paths in
  let o = Interp.run p' in
  let ep' = Option.get o.Interp.edge_profile in
  (* A throwaway disabled session: the closed-loop program must not
     disturb the prepared session's slot table. *)
  let scratch = Session.create ~enabled:false ~name:"layout-eval" () in
  let cl_layout =
    match o.Interp.path_profile with
    | None -> None
    | Some paths -> layout_table scratch p' paths
  in
  let cl_base = layout_proxy_of (Layout.program_proxy p' ~ep:ep') in
  let cl_laid = layout_proxy_of (Layout.program_proxy ?layout:cl_layout p' ~ep:ep') in
  {
    le_base = base;
    le_oracle = oracle;
    le_oracle_improvement = improvement oracle;
    le_methods = methods;
    le_closed_loop =
      {
        cl_routines_straightened = stats.Superblock.routines_optimized;
        cl_duplicated = stats.Superblock.blocks_duplicated;
        cl_merged = stats.Superblock.jumps_merged;
        cl_mismatches = List.length stats.Superblock.mismatches;
        cl_base;
        cl_laid;
        cl_taken_drop = cl_laid.lp_taken < cl_base.lp_taken;
        cl_improvement =
          Score.layout_improvement ~base:cl_base.lp_score
            ~candidate:cl_laid.lp_score;
      };
  }
