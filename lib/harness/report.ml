module Spec = Ppp_workloads.Spec
module Interp = Ppp_interp.Interp
module Config = Ppp_core.Config
module Sampling = Ppp_interp.Sampling
module Quality = Ppp_quality.Quality
module Tier = Ppp_interp.Tier
module Layout = Ppp_interp.Layout
module Instrument = Ppp_core.Instrument
module Score = Ppp_flow.Score
module Decision = Ppp_opt.Decision
module J = Ppp_obs.Jsonx

type prepared_bench = { spec : Spec.bench; prep : Pipeline.prepared }

let prepare_all ?(scale = 1) ?names ?(cache = true) () =
  let selected =
    match names with
    | None -> Spec.all
    | Some ns -> List.map Spec.find ns
  in
  List.map
    (fun (spec : Spec.bench) ->
      let name = spec.Spec.bench_name in
      (* One session per benchmark: all four methods' evaluations share
         its artifacts. [cache:false] measures the uncached pipeline. *)
      let session = Ppp_session.Session.create ~enabled:cache ~name () in
      { spec; prep = Pipeline.prepare ~session ~name (spec.Spec.build ~scale) })
    selected

let is_int b = b.spec.Spec.kind = Spec.Int

let mean f l =
  List.fold_left (fun a x -> a +. f x) 0.0 l /. float_of_int (max 1 (List.length l))

let averages benches value =
  let ints, fps = List.partition is_int benches in
  let ints = List.map value ints and fps = List.map value fps in
  (mean Fun.id ints, mean Fun.id fps, mean Fun.id (ints @ fps))

let count p l = List.length (List.filter p l)
let hr ppf width = Format.fprintf ppf "%s@," (String.make width '-')

(* Every per-benchmark measurement is computed once per benchmark name
   and shared by the text tables, the JSON document and [pppc report]. *)
let memo f =
  let cache = Hashtbl.create 17 in
  fun pb ->
    let key = pb.spec.Spec.bench_name in
    match Hashtbl.find_opt cache key with
    | Some v -> v
    | None ->
        let v = f pb in
        Hashtbl.replace cache key v;
        v

let table1 ppf benches =
  Format.fprintf ppf "@[<v>Table 1: dynamic path characteristics (original vs inlined+unrolled)@,";
  hr ppf 108;
  Format.fprintf ppf
    "%-9s | %12s %8s %8s | %12s %8s %8s | %7s %7s %8s@,"
    "bench" "dyn paths" "branches" "instrs" "dyn paths" "branches" "instrs"
    "inlined" "unroll" "speedup";
  hr ppf 108;
  let speedup pb =
    float_of_int pb.prep.Pipeline.orig_outcome.Interp.base_cost
    /. float_of_int pb.prep.Pipeline.base_outcome.Interp.base_cost
  in
  let row pb =
    let session = pb.prep.Pipeline.session in
    let o =
      Pipeline.path_stats_of_outcome ~session pb.prep.Pipeline.original
        pb.prep.Pipeline.orig_outcome
    in
    let n =
      Pipeline.path_stats_of_outcome ~session pb.prep.Pipeline.optimized
        pb.prep.Pipeline.base_outcome
    in
    Format.fprintf ppf
      "%-9s | %12d %8.2f %8.2f | %12d %8.2f %8.2f | %6.0f%% %7.2f %8.3f@,"
      pb.spec.Spec.bench_name o.Pipeline.dyn_paths o.Pipeline.avg_branches
      o.Pipeline.avg_instrs n.Pipeline.dyn_paths n.Pipeline.avg_branches
      n.Pipeline.avg_instrs
      (100.0 *. Ppp_opt.Inline.pct_dynamic_inlined pb.prep.Pipeline.inline_stats)
      pb.prep.Pipeline.unroll_stats.Ppp_opt.Unroll.avg_dynamic_factor
      (speedup pb)
  in
  List.iter row benches;
  hr ppf 108;
  let i, f, a = averages benches speedup in
  Format.fprintf ppf "averages: speedup INT %.3f  FP %.3f  overall %.3f@,@]@." i f a

let table2 ppf benches =
  Format.fprintf ppf "@[<v>Table 2: hot paths (thresholds 0.125%% and 1%% of program flow)@,";
  hr ppf 78;
  Format.fprintf ppf "%-9s | %9s | %6s %10s | %6s %10s@," "bench" "distinct"
    "hot" ">=0.125%" "hot" ">=1%";
  hr ppf 78;
  List.iter
    (fun pb ->
      let h1 = Pipeline.hot_stats pb.prep ~threshold:0.00125 in
      let h2 = Pipeline.hot_stats pb.prep ~threshold:0.01 in
      Format.fprintf ppf "%-9s | %9d | %6d %9.1f%% | %6d %9.1f%%@,"
        pb.spec.Spec.bench_name h1.Pipeline.distinct_paths h1.Pipeline.hot_count
        h1.Pipeline.hot_flow_pct h2.Pipeline.hot_count h2.Pipeline.hot_flow_pct)
    benches;
  hr ppf 78;
  let _, _, a1 = averages benches (fun pb -> (Pipeline.hot_stats pb.prep ~threshold:0.00125).Pipeline.hot_flow_pct) in
  let _, _, a2 = averages benches (fun pb -> (Pipeline.hot_stats pb.prep ~threshold:0.01).Pipeline.hot_flow_pct) in
  Format.fprintf ppf "average hot flow: %.1f%% (0.125%%)  %.1f%% (1%%)@,@]@." a1 a2

(* One evaluation pass shared by Figures 9, 10, 11 and 12. *)
type evals = {
  edge : Pipeline.evaluation;
  pp : Pipeline.evaluation;
  tpp : Pipeline.evaluation;
  ppp : Pipeline.evaluation;
}

let evals_of =
  memo (fun pb ->
      {
        edge = Pipeline.evaluate_edge_profile pb.prep;
        pp = Pipeline.evaluate pb.prep Config.pp;
        tpp = Pipeline.evaluate pb.prep Config.tpp;
        ppp = Pipeline.evaluate pb.prep Config.ppp;
      })

let by_method e = [ ("edge", e.edge); ("pp", e.pp); ("tpp", e.tpp); ("ppp", e.ppp) ]

let fig9_10_11 ppf benches =
  Format.fprintf ppf
    "@[<v>Figures 9-11: accuracy / coverage / fraction of dynamic paths instrumented@,";
  hr ppf 100;
  Format.fprintf ppf
    "%-9s | %6s %6s %6s | %6s %6s %6s | %10s %10s %10s@," "bench" "edge"
    "TPP" "PPP" "edge" "TPP" "PPP" "PP(hash)" "TPP(hash)" "PPP(hash)";
  hr ppf 100;
  List.iter
    (fun pb ->
      let e = evals_of pb in
      let cell ev =
        Format.asprintf "%3.0f(%2.0f)%%"
          (100. *. ev.Pipeline.frac_paths_instrumented)
          (100. *. ev.Pipeline.frac_paths_hashed)
      in
      Format.fprintf ppf
        "%-9s | %5.0f%% %5.0f%% %5.0f%% | %5.0f%% %5.0f%% %5.0f%% | %10s %10s %10s@,"
        pb.spec.Spec.bench_name
        (100. *. e.edge.Pipeline.accuracy)
        (100. *. e.tpp.Pipeline.accuracy)
        (100. *. e.ppp.Pipeline.accuracy)
        (100. *. e.edge.Pipeline.coverage)
        (100. *. e.tpp.Pipeline.coverage)
        (100. *. e.ppp.Pipeline.coverage)
        (cell e.pp) (cell e.tpp) (cell e.ppp))
    benches;
  hr ppf 100;
  let acc sel = averages benches (fun pb -> (sel (evals_of pb)).Pipeline.accuracy) in
  let cov sel = averages benches (fun pb -> (sel (evals_of pb)).Pipeline.coverage) in
  let _, _, ae = acc (fun e -> e.edge) in
  let _, _, at = acc (fun e -> e.tpp) in
  let _, _, ap = acc (fun e -> e.ppp) in
  let _, _, ce = cov (fun e -> e.edge) in
  let _, _, ct = cov (fun e -> e.tpp) in
  let _, _, cp = cov (fun e -> e.ppp) in
  Format.fprintf ppf
    "average accuracy: edge %.0f%%  TPP %.0f%%  PPP %.0f%%   coverage: edge %.0f%%  TPP %.0f%%  PPP %.0f%%@,@]@."
    (100. *. ae) (100. *. at) (100. *. ap) (100. *. ce) (100. *. ct) (100. *. cp)

let fig12 ppf benches =
  Format.fprintf ppf "@[<v>Figure 12: runtime overhead of path profiling@,";
  hr ppf 50;
  Format.fprintf ppf "%-9s | %7s %7s %7s@," "bench" "PP" "TPP" "PPP";
  hr ppf 50;
  List.iter
    (fun pb ->
      let e = evals_of pb in
      Format.fprintf ppf "%-9s | %6.1f%% %6.1f%% %6.1f%%@," pb.spec.Spec.bench_name
        (100. *. e.pp.Pipeline.overhead)
        (100. *. e.tpp.Pipeline.overhead)
        (100. *. e.ppp.Pipeline.overhead))
    benches;
  hr ppf 50;
  let ov sel = averages benches (fun pb -> (sel (evals_of pb)).Pipeline.overhead) in
  let ppi, ppf_, ppa = ov (fun e -> e.pp) in
  let ti, tf, ta = ov (fun e -> e.tpp) in
  let pi, pf, pa = ov (fun e -> e.ppp) in
  Format.fprintf ppf "INT avg: PP %.1f%% TPP %.1f%% PPP %.1f%%@," (100. *. ppi)
    (100. *. ti) (100. *. pi);
  Format.fprintf ppf "FP  avg: PP %.1f%% TPP %.1f%% PPP %.1f%%@," (100. *. ppf_)
    (100. *. tf) (100. *. pf);
  Format.fprintf ppf "all avg: PP %.1f%% TPP %.1f%% PPP %.1f%%@,@]@." (100. *. ppa)
    (100. *. ta) (100. *. pa)

let fig13 ppf benches =
  Format.fprintf ppf
    "@[<v>Figure 13: leave-one-out ablation, overhead normalized to TPP@,";
  (* The paper selects benchmarks where PPP improves on TPP by more than
     5% (of TPP's overhead). *)
  let selected =
    List.filter
      (fun pb ->
        let e = evals_of pb in
        e.tpp.Pipeline.overhead > 0.0
        && e.ppp.Pipeline.overhead < 0.95 *. e.tpp.Pipeline.overhead)
      benches
  in
  hr ppf 88;
  Format.fprintf ppf "%-9s | %6s | %6s %6s %6s %6s %6s %6s@," "bench" "PPP"
    "-SAC" "-FP" "-Push" "-SPN" "-LC" "(TPP=1)";
  hr ppf 88;
  let row pb variant =
    let e = evals_of pb in
    let base = e.tpp.Pipeline.overhead in
    let norm cfg =
      let ev = Pipeline.evaluate pb.prep cfg in
      if base = 0.0 then 1.0 else ev.Pipeline.overhead /. base
    in
    Format.fprintf ppf "%-9s | %6.2f | %6.2f %6.2f %6.2f %6.2f %6.2f@,"
      pb.spec.Spec.bench_name
      (if base = 0.0 then 1.0 else e.ppp.Pipeline.overhead /. base)
      (norm (variant Config.SAC))
      (norm (variant Config.FP))
      (norm (variant Config.Push))
      (norm (variant Config.SPN))
      (norm (variant Config.LC))
  in
  List.iter (fun pb -> row pb Config.ppp_without) selected;
  hr ppf 88;
  Format.fprintf ppf
    "(values < 1 beat TPP; larger deltas vs the PPP column mean the technique matters)@,@,";
  Format.fprintf ppf
    "one-at-a-time (Section 8.3's closing paragraph): TPP plus a single technique@,";
  hr ppf 88;
  Format.fprintf ppf "%-9s | %6s | %6s %6s %6s %6s %6s@," "bench" "PPP"
    "+SAC" "+FP" "+Push" "+SPN" "+LC";
  hr ppf 88;
  List.iter (fun pb -> row pb Config.tpp_plus) selected;
  hr ppf 88;
  Format.fprintf ppf "@]@."

let section8_1 ppf benches =
  let _, _, acc = averages benches (fun pb -> (evals_of pb).edge.Pipeline.accuracy) in
  let lowest =
    List.fold_left
      (fun m pb -> min m (evals_of pb).edge.Pipeline.accuracy)
      1.0 benches
  in
  let _, _, cov = averages benches (fun pb -> (evals_of pb).edge.Pipeline.coverage) in
  Format.fprintf ppf
    "@[<v>Section 8.1 prose numbers:@,\
     edge-profile accuracy at predicting hot paths: %.0f%% on average, as low as %.0f%%@,\
     paths attributable from an edge profile (definite-flow coverage): %.0f%%@,@]@."
    (100. *. acc) (100. *. lowest) (100. *. cov)

(* {2 Sections}

   Each measurement the bench records per benchmark is described once,
   here: its JSON key (also its command-line name), its memoized
   per-benchmark compute, its text table, its JSON object, the bounds
   {!Gate} holds it to relative to a baseline, and an optional absolute
   floor over the assembled document. The bench harness, [pppc report]
   and the gate all read {!sections}. *)

type bound = Floor | Ceiling

type section = {
  name : string;
  wall_clock : bool;
  json : prepared_bench -> J.t;
  render : Format.formatter -> prepared_bench list -> unit;
  bounds : (string * (J.t -> float option) * bound) list;
  floor : ((string * J.t) list -> (string, string) result) option;
}

let section ?(wall_clock = false) ?(bounds = []) ?floor name get ~render ~json =
  {
    name;
    wall_clock;
    json = (fun pb -> json (get pb));
    render =
      (fun ppf benches -> render ppf (List.map (fun pb -> (pb, get pb)) benches));
    bounds;
    floor;
  }

let num j path =
  match
    List.fold_left (fun j k -> Option.bind j (fun j -> J.member j k)) (Some j) path
  with
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let verdict ok fmt =
  Format.kasprintf (fun msg -> if ok then Ok msg else Error msg) fmt

let bench_name pb = pb.spec.Spec.bench_name

(* {3 methods: the four profilers' cost and accuracy (Figures 9-12)} *)

let eval_json (ev : Pipeline.evaluation) =
  J.Obj
    [
      ("overhead", J.Float ev.Pipeline.overhead);
      ("accuracy", J.Float ev.Pipeline.accuracy);
      ("coverage", J.Float ev.Pipeline.coverage);
      ("frac_paths_instrumented", J.Float ev.Pipeline.frac_paths_instrumented);
      ("frac_paths_hashed", J.Float ev.Pipeline.frac_paths_hashed);
      ("static_actions", J.Int ev.Pipeline.static_actions);
      ("routines_instrumented", J.Int ev.Pipeline.routines_instrumented);
      ("routines_total", J.Int ev.Pipeline.routines_total);
    ]

let methods =
  section "methods" evals_of
    ~render:(fun ppf rows ->
      let benches = List.map fst rows in
      fig9_10_11 ppf benches;
      fig12 ppf benches)
    ~json:(fun e -> J.Obj (List.map (fun (m, ev) -> (m, eval_json ev)) (by_method e)))
    ~bounds:
      (List.map
         (fun m -> (m ^ ".overhead", (fun j -> num j [ m; "overhead" ]), Ceiling))
         [ "pp"; "tpp"; "ppp" ])

(* {3 layout: source order vs the oracle vs each method's layout, and the
   closed superblock+layout loop}

   Derived from the same estimated profiles as [methods]. *)

let layout_of =
  memo (fun pb ->
      Pipeline.layout_eval pb.prep
        ~estimates:
          (List.map
             (fun (m, ev) -> (m, ev.Pipeline.estimated))
             (by_method (evals_of pb))))

(* PPP's layout must strictly drop taken transfers on this many
   benchmarks, and PPP's aggregate improvement must be at least edge
   profiling's. *)
let layout_min_wins = 14

let layout_proxy_json ?improvement (px : Pipeline.layout_proxy) =
  J.Obj
    ([
       ("transfers", J.Int px.Pipeline.lp_transfers);
       ("taken", J.Int px.Pipeline.lp_taken);
       ("local", J.Int px.Pipeline.lp_local);
       ("score", J.Float px.Pipeline.lp_score);
     ]
    @
    match improvement with
    | None -> []
    | Some f -> [ ("improvement", J.Float f) ])

let method_score name (le : Pipeline.layout_eval) =
  match
    List.find_opt (fun (n, _, _) -> String.equal n name) le.Pipeline.le_methods
  with
  | Some (_, px, _) -> px.Pipeline.lp_score
  | None -> le.Pipeline.le_base.Pipeline.lp_score

let layout_render ppf rows =
  Format.fprintf ppf
    "@[<v>Layout: taken-transfer / locality proxy (lower score is better)@,";
  hr ppf 110;
  Format.fprintf ppf "%-9s | %9s %7s | %7s %7s %7s %7s %7s | %9s %5s@," "bench"
    "transfers" "taken%" "base" "oracle" "edge" "PPP" "loop" "sblocks" "drop";
  hr ppf 110;
  List.iter
    (fun (pb, (le : Pipeline.layout_eval)) ->
      let base = le.Pipeline.le_base in
      let cl = le.Pipeline.le_closed_loop in
      let taken_pct =
        if base.Pipeline.lp_transfers = 0 then 0.0
        else
          100.
          *. float_of_int base.Pipeline.lp_taken
          /. float_of_int base.Pipeline.lp_transfers
      in
      Format.fprintf ppf
        "%-9s | %9d %6.1f%% | %7.3f %7.3f %7.3f %7.3f %7.3f | %9d %5s@,"
        (bench_name pb) base.Pipeline.lp_transfers taken_pct
        base.Pipeline.lp_score le.Pipeline.le_oracle.Pipeline.lp_score
        (method_score "edge" le) (method_score "ppp" le)
        cl.Pipeline.cl_laid.Pipeline.lp_score
        cl.Pipeline.cl_routines_straightened
        (if cl.Pipeline.cl_taken_drop then "yes" else "no"))
    rows;
  hr ppf 110;
  let drops =
    count
      (fun (_, le) -> le.Pipeline.le_closed_loop.Pipeline.cl_taken_drop)
      rows
  in
  let agg name =
    List.fold_left
      (fun acc (_, le) ->
        acc
        +. Score.layout_improvement
             ~base:le.Pipeline.le_base.Pipeline.lp_score
             ~candidate:(method_score name le))
      0.0 rows
  in
  Format.fprintf ppf
    "closed loop drops taken transfers on %d/%d benches; aggregate improvement \
     edge %.3f  PPP %.3f@,@]@."
    drops (List.length rows) (agg "edge") (agg "ppp")

let layout_json (le : Pipeline.layout_eval) =
  let cl = le.Pipeline.le_closed_loop in
  J.Obj
    [
      ("base", layout_proxy_json le.Pipeline.le_base);
      ( "oracle",
        layout_proxy_json ~improvement:le.Pipeline.le_oracle_improvement
          le.Pipeline.le_oracle );
      ( "methods",
        J.Obj
          (List.map
             (fun (n, px, imp) -> (n, layout_proxy_json ~improvement:imp px))
             le.Pipeline.le_methods) );
      ( "closed_loop",
        J.Obj
          [
            ("straightened", J.Int cl.Pipeline.cl_routines_straightened);
            ("duplicated", J.Int cl.Pipeline.cl_duplicated);
            ("merged", J.Int cl.Pipeline.cl_merged);
            ("mismatches", J.Int cl.Pipeline.cl_mismatches);
            ("base", layout_proxy_json cl.Pipeline.cl_base);
            ("laid", layout_proxy_json cl.Pipeline.cl_laid);
            ("taken_drop", J.Bool cl.Pipeline.cl_taken_drop);
            ("improvement", J.Float cl.Pipeline.cl_improvement);
          ] );
    ]

let layout =
  section "layout" layout_of ~render:layout_render ~json:layout_json
    ~bounds:
      [
        ( "layout.methods.ppp.improvement",
          (fun j -> num j [ "methods"; "ppp"; "improvement" ]),
          Floor );
        ( "layout.closed_loop.improvement",
          (fun j -> num j [ "closed_loop"; "improvement" ]),
          Floor );
      ]
    ~floor:(fun rows ->
      let wins =
        count
          (fun (_, l) ->
            match
              (num l [ "methods"; "ppp"; "taken" ], num l [ "base"; "taken" ])
            with
            | Some ppp, Some base -> ppp < base
            | _ -> false)
          rows
      in
      let agg m =
        List.fold_left
          (fun acc (_, l) ->
            acc +. Option.value ~default:0.0 (num l [ "methods"; m; "improvement" ]))
          0.0 rows
      in
      verdict
        (wins >= layout_min_wins && agg "ppp" >= agg "edge")
        "PPP's layout drops taken transfers on %d/%d benchmarks (floor %d); \
         aggregate improvement PPP %.3f vs edge %.3f (floor: edge's)"
        wins (List.length rows) layout_min_wins (agg "ppp") (agg "edge"))

(* {3 sampling: PPP under bursty sampled collection}

   Accuracy vs overhead across sampling rates, PPP only: the full run is
   the reference, the measured truth the ceiling. Deterministic (fixed
   sweep seed, no wall clock). *)

let sweep_denoms = [ 1; 4; 16; 64; 256 ]
let sweep_seed = 0x51ee9

(* Some sampled rate must average at least this overlap vs the
   unsampled estimate at no more than this overhead, in percent. *)
let sampling_min_overlap = 90.0
let sampling_max_overhead_pct = 1.5

type sample_point = {
  sp_denom : int;
  sp_overhead : float;
  sp_overlap_full : float;  (** weighted overlap vs the unsampled PPP estimate *)
  sp_overlap_truth : float;  (** weighted overlap vs the measured truth *)
  sp_tv_full : float;  (** total-variation distance vs the unsampled estimate *)
}

(* The measured truth as a quality profile, branch-flow weighted: what
   [sampling] and [quality] score estimates against. *)
let truth_of =
  memo (fun pb ->
      Quality.of_path_profile
        ~views:(Pipeline.views pb.prep)
        ~metric:Pipeline.metric
        (Pipeline.actual_profile pb.prep))

(* The rate-1 point reuses the [methods] PPP evaluation, so its overlaps
   are exactly 100. *)
let sampling_of pb =
  let full = (evals_of pb).ppp in
  let q_full = Quality.of_estimates full.Pipeline.estimated in
  let q_truth = truth_of pb in
  List.map
    (fun denom ->
      let ev =
        if denom <= 1 then full
        else
          Pipeline.evaluate
            ~sampling:(Sampling.spec ~seed:sweep_seed ~denom ())
            pb.prep Config.ppp
      in
      let q = Quality.of_estimates ev.Pipeline.estimated in
      {
        sp_denom = denom;
        sp_overhead = ev.Pipeline.overhead;
        sp_overlap_full = Quality.overlap q_full q;
        sp_overlap_truth = Quality.overlap q_truth q;
        sp_tv_full = Quality.total_divergence q_full q;
      })
    sweep_denoms

let sampling_render ppf rows =
  Format.fprintf ppf
    "@[<v>Sampling sweep: PPP under bursty collection (burst %d, overlap vs \
     the unsampled estimate)@,"
    Sampling.default_burst;
  hr ppf 100;
  Format.fprintf ppf "%-9s |" "bench";
  List.iter
    (fun d -> Format.fprintf ppf " %15s |" (Sampling.rate_to_string d))
    sweep_denoms;
  Format.fprintf ppf "@,";
  hr ppf 100;
  List.iter
    (fun (pb, pts) ->
      Format.fprintf ppf "%-9s |" (bench_name pb);
      List.iter
        (fun sp ->
          Format.fprintf ppf " %5.1f%% ov %4.1f%% |" sp.sp_overlap_full
            (100. *. sp.sp_overhead))
        pts;
      Format.fprintf ppf "@,")
    rows;
  hr ppf 100;
  List.iteri
    (fun i d ->
      let pts = List.map (fun (_, pts) -> List.nth pts i) rows in
      Format.fprintf ppf
        "rate %-5s: avg overlap vs full %5.1f%%  vs truth %5.1f%%  avg \
         overhead %5.2f%%@,"
        (Sampling.rate_to_string d)
        (mean (fun sp -> sp.sp_overlap_full) pts)
        (mean (fun sp -> sp.sp_overlap_truth) pts)
        (100. *. mean (fun sp -> sp.sp_overhead) pts))
    sweep_denoms;
  Format.fprintf ppf "@]@."

let sampling_json pts =
  J.Obj
    [
      ("burst", J.Int Sampling.default_burst);
      ("seed", J.Int sweep_seed);
      ( "rates",
        J.Arr
          (List.map
             (fun sp ->
               J.Obj
                 [
                   ("rate", J.Str (Sampling.rate_to_string sp.sp_denom));
                   ("denom", J.Int sp.sp_denom);
                   ("overhead", J.Float sp.sp_overhead);
                   ("overlap_vs_full", J.Float sp.sp_overlap_full);
                   ("overlap_vs_truth", J.Float sp.sp_overlap_truth);
                   ("tv_vs_full", J.Float sp.sp_tv_full);
                 ])
             pts) );
    ]

(* One swept rate's [key], matched by denominator so reordering or
   extending the sweep never mis-pairs points. *)
let rate_num denom key s =
  Option.bind
    (List.find_opt
       (fun r -> num r [ "denom" ] = Some (float_of_int denom))
       (J.to_list (Option.value ~default:J.Null (J.member s "rates"))))
    (fun r -> num r [ key ])

let sampling =
  section "sampling" (memo sampling_of) ~render:sampling_render
    ~json:sampling_json
    ~bounds:
      (List.concat_map
         (fun d ->
           let bound key dir =
             (Printf.sprintf "sampling.1/%d.%s" d key, rate_num d key, dir)
           in
           [
             bound "overhead" Ceiling;
             bound "overlap_vs_full" Floor;
             bound "overlap_vs_truth" Floor;
           ])
         sweep_denoms)
    ~floor:(fun rows ->
      let avg d key = mean Fun.id (List.filter_map (fun (_, s) -> rate_num d key s) rows) in
      let ok d =
        avg d "overlap_vs_full" >= sampling_min_overlap
        && 100. *. avg d "overhead" <= sampling_max_overhead_pct
      in
      match List.find_opt (fun d -> d > 1 && ok d) sweep_denoms with
      | Some d ->
          verdict true
            "rate 1/%d averages overlap %.1f%% at overhead %.2f%% (floor: >= \
             %g%% at <= %g%%)"
            d (avg d "overlap_vs_full")
            (100. *. avg d "overhead")
            sampling_min_overlap sampling_max_overhead_pct
      | None ->
          verdict false
            "no sampled rate averages overlap >= %g%% at overhead <= %g%%"
            sampling_min_overlap sampling_max_overhead_pct)

(* {3 tiered: one run, hot routines swap mid-run}

   Routines start instrumented and hot ones swap onto optimized
   re-lowerings mid-run. Cost-model arithmetic plus deterministic VM
   runs; the ledger's [tiered] workload times the single run. *)

let tier_threshold = Tier.default_threshold

(* The tiered run must retire instrumentation cost on this many
   benchmarks. *)
let tiered_min_wins = 9

type tiered_stats = {
  tt_routines : int;
  tt_swapped : int;  (** routines that tiered up during the run *)
  tt_reordered : int;  (** ... onto a non-source block order *)
  tt_untiered_instr_cost : int;
  tt_tiered_instr_cost : int;
  tt_saving : float;  (** fraction of instrumentation cost retired *)
  tt_base_score : float;  (** layout proxy, source order *)
  tt_swapped_score : float;  (** layout proxy under the installed orders *)
  tt_improvement : float;
}

(* The tiered run and the untiered instrumented run share one
   instrumentation through the session; the installed block orders are
   scored with the i-cache proxy. *)
let tiered_of pb =
  let prep = pb.prep in
  let t = Pipeline.tiered_run ~threshold:tier_threshold prep Config.ppp in
  let untiered =
    Interp.run
      ~config:
        {
          Interp.default_config with
          instrumentation = Some t.Pipeline.t_instrumented.Instrument.rt;
        }
      prep.Pipeline.optimized
  in
  let ep = Option.get prep.Pipeline.base_outcome.Interp.edge_profile in
  let installed : Layout.t = Hashtbl.create 7 in
  List.iter
    (fun (d : Tier.decision) ->
      Option.iter (Hashtbl.replace installed d.Tier.d_routine) d.Tier.d_order)
    t.Pipeline.t_decisions;
  let score (pr : Layout.proxy) =
    Score.layout_score ~transfers:pr.Layout.transfers ~taken:pr.Layout.taken
      ~local:pr.Layout.local
  in
  let base_score = score (Layout.program_proxy prep.Pipeline.optimized ~ep) in
  let swapped_score =
    score (Layout.program_proxy ~layout:installed prep.Pipeline.optimized ~ep)
  in
  let untiered_cost = untiered.Interp.instr_cost in
  let tiered_cost = t.Pipeline.t_outcome.Interp.instr_cost in
  {
    tt_routines = List.length prep.Pipeline.optimized.Ppp_ir.Ir.routines;
    tt_swapped = List.length t.Pipeline.t_decisions;
    tt_reordered =
      count (fun (d : Tier.decision) -> d.Tier.d_order <> None) t.Pipeline.t_decisions;
    tt_untiered_instr_cost = untiered_cost;
    tt_tiered_instr_cost = tiered_cost;
    tt_saving =
      (if untiered_cost = 0 then 0.0
       else 1.0 -. (float_of_int tiered_cost /. float_of_int untiered_cost));
    tt_base_score = base_score;
    tt_swapped_score = swapped_score;
    tt_improvement =
      Score.layout_improvement ~base:base_score ~candidate:swapped_score;
  }

let tiered_render ppf rows =
  Format.fprintf ppf
    "@[<v>Tiered execution: one run, hot routines swap mid-run (threshold %d \
     trips)@,"
    tier_threshold;
  hr ppf 96;
  Format.fprintf ppf "%-9s | %9s %9s | %12s %12s %7s | %7s %7s@," "bench"
    "swapped" "reorder" "instr cost" "tiered" "saved" "base" "swapped";
  hr ppf 96;
  List.iter
    (fun (pb, ts) ->
      Format.fprintf ppf
        "%-9s | %4d/%-4d %9d | %12d %12d %6.1f%% | %7.3f %7.3f@,"
        (bench_name pb) ts.tt_swapped ts.tt_routines ts.tt_reordered
        ts.tt_untiered_instr_cost ts.tt_tiered_instr_cost
        (100. *. ts.tt_saving) ts.tt_base_score ts.tt_swapped_score)
    rows;
  hr ppf 96;
  Format.fprintf ppf
    "tiering retires instrumentation cost on %d/%d benches@,@]@."
    (count
       (fun (_, ts) -> ts.tt_tiered_instr_cost < ts.tt_untiered_instr_cost)
       rows)
    (List.length rows)

let tiered_json ts =
  J.Obj
    [
      ("threshold", J.Int tier_threshold);
      ("routines", J.Int ts.tt_routines);
      ("swapped", J.Int ts.tt_swapped);
      ("reordered", J.Int ts.tt_reordered);
      ("untiered_instr_cost", J.Int ts.tt_untiered_instr_cost);
      ("tiered_instr_cost", J.Int ts.tt_tiered_instr_cost);
      ("instr_saving", J.Float ts.tt_saving);
      ( "layout",
        J.Obj
          [
            ("base_score", J.Float ts.tt_base_score);
            ("swapped_score", J.Float ts.tt_swapped_score);
            ("improvement", J.Float ts.tt_improvement);
          ] );
    ]

let tiered =
  section "tiered" (memo tiered_of) ~render:tiered_render ~json:tiered_json
    ~bounds:
      [
        ("tiered.instr_saving", (fun j -> num j [ "instr_saving" ]), Floor);
        ( "tiered.layout.improvement",
          (fun j -> num j [ "layout"; "improvement" ]),
          Floor );
      ]
    ~floor:(fun rows ->
      let wins =
        count
          (fun (_, t) ->
            match (num t [ "tiered_instr_cost" ], num t [ "untiered_instr_cost" ]) with
            | Some tiered, Some untiered -> tiered < untiered
            | _ -> false)
          rows
      in
      verdict (wins >= tiered_min_wins)
        "tiering retires instrumentation cost on %d/%d benchmarks (floor %d)"
        wins (List.length rows) tiered_min_wins)

(* {3 drift: the re-optimization loop on a fleet's profile store}

   The full-instrumentation loop hands each generation the previous
   generation's pristine profile; the drift loop hands it the decayed
   merge of every generation's *sampled* dump. The number that matters
   is decision churn: how much placement stability costs when the
   profile store is what a fleet actually ships. Deterministic (fixed
   seed, fixed decay). *)

let drift_iterations = 3
let drift_decay = 0.5
let drift_denom = 16

(* The drift loop's generation-2 decision stability, averaged over the
   benchmarks, must be at least this percentage. *)
let drift_min_stability = 40.0

type drift_gen = {
  dg_gen : int;  (** 2-based: generation 1's diff is vacuous *)
  dg_full_stability : float;
  dg_drift_stability : float;
  dg_full_overhead : float;
  dg_drift_overhead : float;
  dg_drift_matched : float;
      (** count mass surviving the decayed merge + stale matching *)
}

type drift_stats = {
  dr_gens : drift_gen list;
  dr_full_stability : float;
  dr_drift_stability : float;
  dr_churn_gap : float;  (** full - drift at generation 2 *)
}

let drift_flags =
  { Pipeline.default_flags with Pipeline.superblocks = true; layout = true }

let drift_of pb =
  let name = bench_name pb in
  let p = pb.prep.Pipeline.original in
  let full =
    Pipeline.reoptimize ~flags:drift_flags ~iterations:drift_iterations ~name p
  in
  let drift =
    Pipeline.reoptimize ~flags:drift_flags ~iterations:drift_iterations
      ~sampling:(Sampling.spec ~seed:sweep_seed ~denom:drift_denom ())
      ~decay:drift_decay ~name p
  in
  let gens =
    List.filter_map
      (fun (f, d) ->
        let open Pipeline in
        if f.gen < 2 then None
        else
          Some
            {
              dg_gen = f.gen;
              dg_full_stability = Decision.stability f.decision_diff;
              dg_drift_stability = Decision.stability d.decision_diff;
              dg_full_overhead = f.instr_overhead;
              dg_drift_overhead = d.instr_overhead;
              dg_drift_matched = d.matched_fraction;
            })
      (List.combine full drift)
  in
  (* The headline is generation 2: both loops re-optimize the same
     starting program there, so the stability difference is purely the
     profile store's doing. Later generations re-optimize
     already-optimized programs whose decision keys have all moved,
     which depresses stability structurally in both loops alike —
     reported in [dr_gens], not summarized. *)
  let at_gen2 f = match gens with g :: _ -> f g | [] -> 1.0 in
  let full2 = at_gen2 (fun g -> g.dg_full_stability) in
  let drift2 = at_gen2 (fun g -> g.dg_drift_stability) in
  {
    dr_gens = gens;
    dr_full_stability = full2;
    dr_drift_stability = drift2;
    dr_churn_gap = full2 -. drift2;
  }

let drift_render ppf rows =
  Format.fprintf ppf
    "@[<v>Drift sweep: decision stability, pristine profiles vs a sampled \
     (1/%d) store decayed at %.2f@,"
    drift_denom drift_decay;
  hr ppf 92;
  Format.fprintf ppf "%-9s |" "bench";
  List.iter
    (fun g -> Format.fprintf ppf " gen %d: %9s |" g "full/drift")
    (List.init (drift_iterations - 1) (fun i -> i + 2));
  Format.fprintf ppf " %9s@," "gap";
  hr ppf 92;
  List.iter
    (fun (pb, ds) ->
      Format.fprintf ppf "%-9s |" (bench_name pb);
      List.iter
        (fun g ->
          Format.fprintf ppf "   %5.1f%%/%5.1f%% |"
            (100. *. g.dg_full_stability)
            (100. *. g.dg_drift_stability))
        ds.dr_gens;
      Format.fprintf ppf " %8.1f%%@," (100. *. ds.dr_churn_gap))
    rows;
  hr ppf 92;
  let avg f = 100. *. mean (fun (_, ds) -> f ds) rows in
  Format.fprintf ppf
    "avg gen-2 stability: full %.1f%%  drift %.1f%%  (avg gap %.1f%%)@,@]@."
    (avg (fun d -> d.dr_full_stability))
    (avg (fun d -> d.dr_drift_stability))
    (avg (fun d -> d.dr_churn_gap))

let drift_json ds =
  J.Obj
    [
      ("iterations", J.Int drift_iterations);
      ("decay", J.Float drift_decay);
      ("denom", J.Int drift_denom);
      ("seed", J.Int sweep_seed);
      ( "generations",
        J.Arr
          (List.map
             (fun g ->
               J.Obj
                 [
                   ("gen", J.Int g.dg_gen);
                   ("full_stability", J.Float g.dg_full_stability);
                   ("drift_stability", J.Float g.dg_drift_stability);
                   ("full_overhead", J.Float g.dg_full_overhead);
                   ("drift_overhead", J.Float g.dg_drift_overhead);
                   ("drift_matched", J.Float g.dg_drift_matched);
                 ])
             ds.dr_gens) );
      ("full_stability", J.Float ds.dr_full_stability);
      ("drift_stability", J.Float ds.dr_drift_stability);
      ("churn_gap", J.Float ds.dr_churn_gap);
    ]

let drift =
  section "drift" (memo drift_of) ~render:drift_render ~json:drift_json
    ~bounds:
      [ ("drift.drift_stability", (fun j -> num j [ "drift_stability" ]), Floor) ]
    ~floor:(fun rows ->
      let avg key =
        100. *. mean (fun (_, d) -> Option.value ~default:0.0 (num d [ key ])) rows
      in
      verdict
        (avg "drift_stability" >= drift_min_stability)
        "avg gen-2 stability %.1f%% (full-instrumentation loop %.1f%%) over %d \
         benchmarks (floor %g%%)"
        (avg "drift_stability") (avg "full_stability") (List.length rows)
        drift_min_stability)

(* {3 quality: each method's estimated profile against the measured truth}

   The rows of [pppc report]: per method, the full quality comparison
   (weighted overlap, hot precision/recall/coverage, per-routine
   divergence, composite) of its [methods] estimate, beside its scalar
   scores and the [layout] improvement that estimate buys. The object is
   built once per benchmark; its text table and its floor read it. *)

(* Each method's worst-workload overlap, in percent, must be at least
   its floor. Measured at scale 1: edge 14.1, pp 77.7, tpp 77.8, ppp
   65.7; the floors leave headroom for benign drift while still catching
   a placement or decoding regression. *)
let quality_floors = [ ("edge", 10.0); ("pp", 70.0); ("tpp", 70.0); ("ppp", 60.0) ]

let quality_of pb =
  let reference = truth_of pb in
  let le = layout_of pb in
  let method_json (m, (ev : Pipeline.evaluation)) =
    let candidate = Quality.of_estimates ev.Pipeline.estimated in
    let comparison =
      match Quality.comparison_json ~reference ~candidate () with
      | J.Obj fields -> fields
      | _ -> []
    in
    let layout_improvement =
      List.filter_map
        (fun (n, _, imp) ->
          if String.equal n m then Some ("layout_improvement", J.Float imp)
          else None)
        le.Pipeline.le_methods
    in
    ( m,
      J.Obj
        (comparison
        @ [
            ("overhead", J.Float ev.Pipeline.overhead);
            ("accuracy", J.Float ev.Pipeline.accuracy);
            ("coverage", J.Float ev.Pipeline.coverage);
          ]
        @ layout_improvement) )
  in
  J.Obj
    [
      ("measured_total", J.Int (Quality.total reference));
      ("measured_distinct", J.Int (Quality.distinct reference));
      ("methods", J.Obj (List.map method_json (by_method (evals_of pb))));
    ]

(* Method [m]'s overlap on one benchmark's [quality] object; a missing
   one reads 0, so it fails every floor. *)
let quality_overlap m q =
  Option.value ~default:0.0 (num q [ "methods"; m; "overlap_pct" ])

let worst = function [] -> 0.0 | v :: vs -> List.fold_left Float.min v vs

let quality =
  section "quality" (memo quality_of) ~json:Fun.id
    ~render:(fun ppf rows ->
      let methods = List.map fst quality_floors in
      let line name value =
        Format.fprintf ppf "%-9s |" name;
        List.iter (fun m -> Format.fprintf ppf " %7.1f" (value m)) methods;
        Format.fprintf ppf "@,"
      in
      Format.fprintf ppf
        "@[<v>Profile quality: weighted overlap with the measured truth (%%)@,";
      hr ppf 46;
      Format.fprintf ppf "%-9s |" "bench";
      List.iter (Format.fprintf ppf " %7s") methods;
      Format.fprintf ppf "@,";
      hr ppf 46;
      List.iter (fun (pb, q) -> line (bench_name pb) (fun m -> quality_overlap m q)) rows;
      hr ppf 46;
      let overlaps m = List.map (fun (_, q) -> quality_overlap m q) rows in
      line "mean" (fun m -> mean Fun.id (overlaps m));
      line "worst" (fun m -> worst (overlaps m));
      Format.fprintf ppf "@]@.")
    ~floor:(fun rows ->
      let worsts =
        List.map
          (fun (m, floor) ->
            (m, floor, worst (List.map (fun (_, q) -> quality_overlap m q) rows)))
          quality_floors
      in
      let below = List.filter (fun (_, floor, w) -> w < floor) worsts in
      verdict (below = [])
        "worst-workload overlap %s over %d benchmarks%s"
        (String.concat ", "
           (List.map
              (fun (m, floor, w) -> Printf.sprintf "%s %.1f%% (floor %g%%)" m w floor)
              worsts))
        (List.length rows)
        (if below = [] then ""
         else
           "; below its floor: "
           ^ String.concat ", " (List.map (fun (m, _, _) -> m) below)))

(* {3 The wall-clock section: throughput}

   Nondeterministic, so a sharded run (whose document must be
   byte-identical at every -j) refuses it. Profiling bookkeeping the
   paper's methodology does not charge (edge collection, ground-truth
   traces) is off while timing, except in the profiling-on columns,
   which time the default config every pipeline run uses. Runs are
   timed on the clock trace spans read. *)

let quiet =
  { Interp.default_config with collect_edges = false; trace_paths = false }

(* Every benchmark's VM must run at least this many times faster than
   the reference tree-walker, with profiling off and on. *)
let throughput_min_ratio = 1.5

(* Each engine gets a warm-up run (which also yields the workload's
   exact dyn_instrs), then timed runs until this many seconds are spent;
   the best run is reported so one scheduler hiccup cannot poison it. *)
let throughput_min_time = 0.1

type throughput = {
  vm : float;  (** Minstr/s, profiling off *)
  reference : float;
  ratio : float;
  paths_vm : float;  (** Minstr/s, default config: edges + path tracing *)
  paths_reference : float;
  paths_ratio : float;
}

let throughput_of pb =
  let p = pb.prep.Pipeline.optimized in
  let measure engine config =
    let instrs =
      float_of_int (Interp.run ~engine ~config p).Interp.dyn_instrs
    in
    let best = ref 0.0 and spent = ref 0.0 in
    while !spent < throughput_min_time do
      let t0 = Ppp_obs.Trace.now_us () in
      ignore (Interp.run ~engine ~config p);
      let dt = (Ppp_obs.Trace.now_us () -. t0) *. 1e-6 in
      spent := !spent +. dt;
      if dt > 0.0 then best := Float.max !best (instrs /. dt)
    done;
    !best /. 1e6
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let vm = measure Interp.Vm quiet in
  let reference = measure Interp.Reference quiet in
  let paths_vm = measure Interp.Vm Interp.default_config in
  let paths_reference = measure Interp.Reference Interp.default_config in
  {
    vm;
    reference;
    ratio = ratio vm reference;
    paths_vm;
    paths_reference;
    paths_ratio = ratio paths_vm paths_reference;
  }

let throughput =
  section "throughput" ~wall_clock:true (memo throughput_of)
    ~render:(fun ppf rows ->
      Format.fprintf ppf
        "@[<v>Engine throughput in Minstr/s (best of >= %.2fs per engine and \
         config, monotonic clock)@,\
         %-9s | %8s %9s %6s | %8s %9s %6s@,"
        throughput_min_time "" "vm" "reference" "ratio" "paths vm" "reference"
        "ratio";
      List.iter
        (fun (pb, t) ->
          Format.fprintf ppf "%-9s | %8.2f %9.2f x%5.2f | %8.2f %9.2f x%5.2f@,"
            (bench_name pb) t.vm t.reference t.ratio t.paths_vm t.paths_reference
            t.paths_ratio)
        rows;
      Format.fprintf ppf "@]@.")
    ~json:(fun t ->
      J.Obj
        [
          ("vm_minstr_s", J.Float t.vm);
          ("reference_minstr_s", J.Float t.reference);
          ("ratio", J.Float t.ratio);
          ("paths_vm_minstr_s", J.Float t.paths_vm);
          ("paths_reference_minstr_s", J.Float t.paths_reference);
          ("paths_ratio", J.Float t.paths_ratio);
        ])
    ~bounds:
      [
        ("throughput.ratio", (fun j -> num j [ "ratio" ]), Floor);
        ("throughput.paths_ratio", (fun j -> num j [ "paths_ratio" ]), Floor);
      ]
    ~floor:(fun rows ->
      (* Per benchmark, each ratio below the floor. *)
      let slow =
        List.filter_map
          (fun (name, t) ->
            match
              List.filter_map
                (fun (key, label) ->
                  let r = Option.value ~default:0.0 (num t [ key ]) in
                  if r < throughput_min_ratio then
                    Some (Printf.sprintf " %s%s x%.2f" name label r)
                  else None)
                [ ("ratio", ""); ("paths_ratio", " (paths)") ]
            with
            | [] -> None
            | below -> Some (String.concat "," below))
          rows
      in
      verdict (slow = [])
        "VM/reference ratio at least %g, profiling off and on, on %d/%d \
         benchmarks%s"
        throughput_min_ratio
        (List.length rows - List.length slow)
        (List.length rows)
        (if slow = [] then "" else "; below it:" ^ String.concat "," slow))

let sections = [ methods; layout; sampling; tiered; drift; quality; throughput ]

let find_section name = List.find_opt (fun s -> s.name = name) sections

let select names =
  List.filter
    (fun s -> List.mem s.name ("methods" :: "layout" :: names))
    sections

(* {2 Machine-readable output: BENCH_*.json} *)

let bench_json_one ?(sections = select []) pb =
  let o = pb.prep.Pipeline.base_outcome in
  J.Obj
    ([
       ("name", J.Str (bench_name pb));
       ("kind", J.Str (if is_int pb then "int" else "fp"));
       ("dyn_instrs", J.Int o.Interp.dyn_instrs);
       ("dyn_paths", J.Int o.Interp.dyn_paths);
     ]
    @ List.map (fun s -> (s.name, s.json pb)) sections)

let bench_json_wrap ?(scale = 1) ?seed rows =
  let seed_field = match seed with None -> [] | Some s -> [ ("seed", J.Int s) ] in
  J.Obj
    ([ ("schema", J.Str "ppp-bench/1"); ("scale", J.Int scale) ]
    @ seed_field
    @ [ ("benchmarks", J.Arr rows) ])
