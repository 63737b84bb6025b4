(* The observability subsystem: profile-quality analytics (Ppp_quality),
   the optimizer decision log, live VM telemetry, the quality report, and
   the gate's missing-metric / floor checks.

   The quality scores are exercised both on synthetic weighted profiles
   (where the expected value is computable by hand) and on real dumps of
   generated programs, including fault-perturbed and cross-version
   (stale-matched) ones. Telemetry is tested differentially: a run with
   a snapshot ring attached must be byte-identical on every observable
   to a run without one. *)

module Quality = Ppp_quality.Quality
module QR = Ppp_harness.Quality_report
module Gate = Ppp_harness.Gate
module H = Ppp_harness.Pipeline
module Report = Ppp_harness.Report
module Decision = Ppp_opt.Decision
module Interp = Ppp_interp.Interp
module Telemetry = Ppp_interp.Telemetry
module Metrics = Ppp_obs.Metrics
module Trace = Ppp_obs.Trace
module Jsonx = Ppp_obs.Jsonx
module Faults = Ppp_resilience.Faults
module Raw = Ppp_profile.Profile_io.Raw
module Diagnostic = Ppp_resilience.Diagnostic
module Gen = Ppp_workloads.Gen
module Metric = Ppp_profile.Metric

let metric = Metric.Branch_flow

let dump_of_seed ?fuel seed =
  let p = Gen.program ~seed in
  let o =
    match fuel with
    | None -> Interp.run p
    | Some fuel -> Interp.run ~config:{ Interp.default_config with fuel } p
  in
  Raw.of_program ?edges:o.Interp.edge_profile ?paths:o.Interp.path_profile p

let quality_of_seed ?fuel seed = Quality.of_dump ~metric (dump_of_seed ?fuel seed)
let approx ?(eps = 1e-6) a b = Float.abs (a -. b) < eps

(* {2 Overlap properties} *)

let prop_overlap_reflexive =
  QCheck.Test.make ~name:"overlap of a profile with itself is 100" ~count:20
    QCheck.small_int (fun seed ->
      let q = quality_of_seed seed in
      approx ~eps:1e-6 100.0 (Quality.overlap q q))

let prop_overlap_symmetric =
  QCheck.Test.make ~name:"overlap is symmetric" ~count:20
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let a = quality_of_seed s1 and b = quality_of_seed (s1 + s2 + 1) in
      approx (Quality.overlap a b) (Quality.overlap b a))

let prop_overlap_bounded =
  QCheck.Test.make ~name:"overlap lies in [0, 100]" ~count:20
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let a = quality_of_seed s1 and b = quality_of_seed s2 in
      let v = Quality.overlap a b in
      v >= 0.0 && v <= 100.0 +. 1e-9)

(* Degradation is monotone: dropping ever more of the reference's keys
   from the candidate can only lower the overlap. Synthetic weights make
   the expected values exact: with n equal-weight keys and i of them
   dropped, the overlap is 100 * (n - i) / n. *)
let test_overlap_monotone_degradation () =
  let n = 10 in
  let key i = (Printf.sprintf "r%d" i, [ i; i + 1 ]) in
  let full = List.init n (fun i -> (key i, 100)) in
  let reference = Quality.of_weighted full in
  let prev = ref infinity in
  for dropped = 0 to n do
    let cand = Quality.of_weighted (List.filteri (fun i _ -> i >= dropped) full) in
    let v = Quality.overlap reference cand in
    let expected =
      if dropped = n then 0.0 else 100.0 *. float_of_int (n - dropped) /. float_of_int n
    in
    Alcotest.(check bool)
      (Printf.sprintf "overlap with %d keys dropped ~ %g" dropped expected)
      true (approx v expected);
    Alcotest.(check bool) "overlap non-increasing" true (v <= !prev +. 1e-9);
    prev := v
  done

let test_overlap_empty () =
  let empty = Quality.of_weighted [] in
  let some = Quality.of_weighted [ (("r", [ 0 ]), 5) ] in
  Alcotest.(check bool) "two empties agree" true
    (approx 100.0 (Quality.overlap empty empty));
  Alcotest.(check bool) "empty vs non-empty is 0" true
    (approx 0.0 (Quality.overlap empty some));
  Alcotest.(check bool) "non-empty vs empty is 0" true
    (approx 0.0 (Quality.overlap some empty))

(* A fault-perturbed dump never scores above the pristine one against
   itself, and scoring it never raises (the loader's salvage guarantees
   carry through to the analytics). *)
let prop_overlap_faulted =
  QCheck.Test.make ~name:"faulted dumps score in range, never raise" ~count:15
    QCheck.(pair small_int small_int)
    (fun (seed, fseed) ->
      let pristine_text = Raw.to_string (dump_of_seed seed) in
      let reference = Quality.of_dump ~metric (Raw.parse pristine_text) in
      let r = Faults.rng ~seed:fseed in
      List.for_all
        (fun fault ->
          let mutated = Faults.apply r fault pristine_text in
          let cand = Quality.of_dump ~metric (Raw.parse mutated) in
          let v = Quality.overlap reference cand in
          v >= 0.0 && v <= 100.0 +. 1e-9)
        Faults.all)

(* {2 Divergence and composite} *)

let prop_divergence_zero_on_self =
  QCheck.Test.make ~name:"total divergence of a profile with itself is 0"
    ~count:20 QCheck.small_int (fun seed ->
      let q = quality_of_seed seed in
      approx 0.0 (Quality.total_divergence q q))

let prop_divergence_sums =
  QCheck.Test.make
    ~name:"per-routine divergence sums to the total, each term in [0,1]"
    ~count:20
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let a = quality_of_seed s1 and b = quality_of_seed (s1 + s2 + 1) in
      let per = Quality.divergence a b in
      let total = Quality.total_divergence a b in
      approx ~eps:1e-6 total (List.fold_left (fun acc (_, d) -> acc +. d) 0.0 per)
      && List.for_all (fun (_, d) -> d >= -1e-12 && d <= 1.0 +. 1e-9) per
      && total >= 0.0
      && total <= 1.0 +. 1e-9)

let test_composite () =
  let q = quality_of_seed 3 in
  Alcotest.(check bool) "identical profiles score 1.0" true
    (approx 1.0 (Quality.composite ~reference:q ~candidate:q ()));
  Alcotest.(check bool) "confidence scales linearly" true
    (approx 0.5 (Quality.composite ~confidence:0.5 ~reference:q ~candidate:q ()))

(* {2 Hot-path report} *)

let test_hot_report_self () =
  let q = quality_of_seed 5 in
  let r = Quality.hot_report ~reference:q ~candidate:q () in
  Alcotest.(check bool) "precision 1.0" true (approx 1.0 r.Quality.precision);
  Alcotest.(check bool) "recall 1.0" true (approx 1.0 r.Quality.recall);
  Alcotest.(check bool) "flow coverage 1.0" true
    (approx 1.0 r.Quality.flow_coverage);
  Alcotest.(check int) "hot sets coincide" r.Quality.hot_ref r.Quality.hot_cand;
  Alcotest.(check int) "all matched" r.Quality.hot_ref r.Quality.matched

let test_hot_report_empty_candidate () =
  let q = quality_of_seed 5 in
  let empty = Quality.of_weighted [] in
  let r = Quality.hot_report ~reference:q ~candidate:empty () in
  Alcotest.(check bool) "reference has hot paths" true (r.Quality.hot_ref > 0);
  Alcotest.(check int) "no candidate hot paths" 0 r.Quality.hot_cand;
  Alcotest.(check bool) "vacuous precision" true (approx 1.0 r.Quality.precision);
  Alcotest.(check bool) "zero recall" true (approx 0.0 r.Quality.recall);
  Alcotest.(check bool) "zero flow coverage" true
    (approx 0.0 r.Quality.flow_coverage)

let prop_hot_report_sane =
  QCheck.Test.make ~name:"hot report fields are internally consistent"
    ~count:20
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let a = quality_of_seed s1 and b = quality_of_seed s2 in
      let r = Quality.hot_report ~reference:a ~candidate:b () in
      r.Quality.matched <= r.Quality.hot_ref
      && r.Quality.matched <= r.Quality.hot_cand
      && r.Quality.precision >= 0.0
      && r.Quality.precision <= 1.0 +. 1e-9
      && r.Quality.recall >= 0.0
      && r.Quality.recall <= 1.0 +. 1e-9
      && r.Quality.flow_coverage >= 0.0
      && r.Quality.flow_coverage <= 1.0 +. 1e-9)

(* {2 Cross-version remapping} *)

(* Two dumps of the "same program, next build": a workload at two scales
   has renumbered-but-matchable CFGs (the smoke-tested stale path). *)
let cross_version_dumps () =
  let dump scale =
    let b = Ppp_workloads.Spec.find "bzip2" in
    let p = b.Ppp_workloads.Spec.build ~scale in
    let o = Interp.run p in
    Raw.of_program ?edges:o.Interp.edge_profile ?paths:o.Interp.path_profile p
  in
  (dump 1, dump 2)

(* Moved onto the scale-1 dump, the scale-2 dump's [main] re-maps
   through stale matching and every count lands. *)
let test_remap_cross_version () =
  let raw_a, raw_b = cross_version_dumps () in
  let moved = Raw.onto ~reference:raw_a raw_b in
  Alcotest.(check int) "mass plus lost is conserved"
    (Raw.mass raw_b + Raw.lost raw_b)
    (Raw.mass moved + Raw.lost moved);
  Alcotest.(check int) "nothing dropped" 0 (Raw.lost moved);
  Alcotest.(check (list (pair string (option string))))
    "one Stale warning, for main"
    [ ("stale", Some "main") ]
    (List.map
       (fun (d : Diagnostic.t) ->
         (Diagnostic.kind_name d.Diagnostic.kind, d.Diagnostic.routine))
       (Raw.diagnostics moved));
  Alcotest.(check bool) "main takes the reference's description" true
    (Raw.desc moved "main" = Raw.desc raw_a "main"
    && Raw.desc raw_a "main" <> Raw.desc raw_b "main");
  let qa = Quality.of_dump ~metric raw_a in
  let cross = Quality.overlap qa (Quality.of_dump ~metric moved) in
  Alcotest.(check bool) "cross-version scores below same-version" true
    (cross <= Quality.overlap qa qa +. 1e-9);
  Alcotest.(check bool) "stale match salvages real agreement" true (cross > 0.0)

let test_remap_identity () =
  let raw = dump_of_seed 11 in
  let moved = Raw.onto ~reference:raw raw in
  Alcotest.(check string) "a dump moved onto itself keeps every count"
    (Raw.to_string raw) (Raw.to_string moved);
  Alcotest.(check int) "and loses nothing" 0 (Raw.lost moved);
  Alcotest.(check int) "and warns of nothing" 0
    (List.length (Raw.diagnostics moved))

(* A routine the reference does not describe keeps its counts and its
   own description, even where the reference's build differs. *)
let test_remap_keeps_unreferenced () =
  let raw_a, raw_b = cross_version_dumps () in
  let reference = Raw.rename (fun n -> if n = "main" then "main'" else n) raw_a in
  let moved = Raw.onto ~reference raw_b in
  let counts raw =
    let paths = ref [] and edges = ref [] in
    Raw.iter_paths raw "main" (fun p c -> paths := (p, c) :: !paths);
    Raw.iter_edges raw "main" (fun e c -> edges := (e, c) :: !edges);
    (List.sort compare !paths, List.sort compare !edges)
  in
  Alcotest.(check bool) "main has counts" true (fst (counts raw_b) <> []);
  Alcotest.(check bool) "main keeps its counts" true (counts moved = counts raw_b);
  Alcotest.(check bool) "and its description" true
    (Raw.desc moved "main" = Raw.desc raw_b "main");
  Alcotest.(check int) "no Stale warning" 0 (List.length (Raw.diagnostics moved));
  Alcotest.(check int) "every count kept" (Raw.mass raw_b) (Raw.mass moved)

(* {2 Decision log} *)

let inline ?(freq = 10) ?(priority = 1.0) caller callee block =
  Decision.Inline { caller; callee; block; freq; priority }

let unroll ?(trips = 4.0) ?(back_freq = 100) routine header factor =
  Decision.Unroll { routine; header; factor; trips; back_freq }

let test_decision_key_ignores_magnitudes () =
  Alcotest.(check string)
    "inline keys ignore freq/priority"
    (Decision.key (inline ~freq:10 ~priority:1.0 "a" "b" 3))
    (Decision.key (inline ~freq:999 ~priority:7.5 "a" "b" 3));
  Alcotest.(check bool)
    "different placements have different keys" true
    (Decision.key (inline "a" "b" 3) <> Decision.key (inline "a" "b" 4));
  Alcotest.(check string)
    "unroll keys ignore trips/back_freq"
    (Decision.key (unroll ~trips:2.0 ~back_freq:5 "r" 1 4))
    (Decision.key (unroll ~trips:90.0 ~back_freq:5000 "r" 1 4))

let test_decision_diff () =
  let d1 = inline "a" "b" 3 in
  let d2 = unroll "r" 1 4 in
  let d3 = inline "a" "c" 7 in
  let first = Decision.diff ~previous:[] ~current:[ d1; d2 ] in
  Alcotest.(check int) "first generation: all added" 2
    (List.length first.Decision.added);
  Alcotest.(check bool) "first generation: vacuous stability" true
    (approx 1.0 (Decision.stability first));
  (* d2 survives (with different magnitudes), d1 is lost, d3 appears. *)
  let d2' = unroll ~trips:8.0 ~back_freq:777 "r" 1 4 in
  let d = Decision.diff ~previous:[ d1; d2 ] ~current:[ d2'; d3 ] in
  Alcotest.(check int) "one added" 1 (List.length d.Decision.added);
  Alcotest.(check int) "one removed" 1 (List.length d.Decision.removed);
  Alcotest.(check int) "one kept" 1 (List.length d.Decision.kept);
  Alcotest.(check bool) "stability = kept / (kept + removed)" true
    (approx 0.5 (Decision.stability d));
  (* The JSON renderings are well-formed. *)
  let roundtrip j = Jsonx.of_string (Jsonx.to_string j) = Jsonx.canonical j in
  Alcotest.(check bool) "decision JSON parses" true
    (List.for_all (fun x -> roundtrip (Jsonx.canonical (Decision.to_json x)))
       [ d1; d2; d3 ]);
  Alcotest.(check bool) "diff JSON parses" true
    (roundtrip (Jsonx.canonical (Decision.diff_json d)))

let test_pipeline_decisions () =
  let b = Ppp_workloads.Spec.find "bzip2" in
  let prep = H.prepare ~name:"bzip2" (b.Ppp_workloads.Spec.build ~scale:1) in
  let ds = H.decisions prep in
  Alcotest.(check bool) "the optimizer logged its decisions" true (ds <> []);
  Alcotest.(check int) "log length matches the pass stats"
    (List.length prep.H.inline_stats.Ppp_opt.Inline.decisions
    + List.length prep.H.unroll_stats.Ppp_opt.Unroll.decisions)
    (List.length ds)

let test_reoptimize_decision_diffs () =
  let b = Ppp_workloads.Spec.find "mcf" in
  let gens =
    H.reoptimize ~iterations:2 ~name:"mcf" (b.Ppp_workloads.Spec.build ~scale:1)
  in
  Alcotest.(check int) "two generations" 2 (List.length gens);
  let g1 = List.nth gens 0 and g2 = List.nth gens 1 in
  Alcotest.(check int) "gen 1 diffs against the empty log"
    (List.length g1.H.decisions)
    (List.length g1.H.decision_diff.Decision.added);
  Alcotest.(check bool) "gen 1 stability vacuously 1.0" true
    (approx 1.0 (Decision.stability g1.H.decision_diff));
  let d2 = g2.H.decision_diff in
  Alcotest.(check int) "gen 2 diff partitions gen 2's log"
    (List.length g2.H.decisions)
    (List.length d2.Decision.added + List.length d2.Decision.kept);
  let s = Decision.stability d2 in
  Alcotest.(check bool) "gen 2 stability in [0,1]" true (s >= 0.0 && s <= 1.0)

(* {2 Gate: missing metrics and quality floors} *)

let bench_doc ~methods name =
  Jsonx.Obj
    [
      ("name", Jsonx.Str name);
      ( "methods",
        Jsonx.Obj
          (List.map
             (fun (m, ov) -> (m, Jsonx.Obj [ ("overhead", Jsonx.Float ov) ]))
             methods) );
    ]

let gate_doc benches =
  Jsonx.Obj
    [ ("schema", Jsonx.Str "ppp-bench/1"); ("benchmarks", Jsonx.Arr benches) ]

(* The gate's failures, missing-metric warnings dropped. *)
let gate_failures ~baseline ~current ~pct =
  (Gate.run ~baseline ~current ~pct ()).Gate.failures

let test_gate_missing_metric () =
  let baseline =
    gate_doc [ bench_doc ~methods:[ ("pp", 1.0); ("ppp", 1.0) ] "x" ]
  in
  let current = gate_doc [ bench_doc ~methods:[ ("pp", 1.0) ] "x" ] in
  let lax = Gate.run ~baseline ~current ~pct:10.0 () in
  Alcotest.(check int) "lax: no failures" 0 (List.length lax.Gate.failures);
  Alcotest.(check int) "lax: one warning" 1 (List.length lax.Gate.warnings);
  let w = List.hd lax.Gate.warnings in
  Alcotest.(check string) "warning names the bench" "x" w.Gate.bench;
  Alcotest.(check string) "warning names the metric" "ppp.overhead" w.Gate.metric;
  let strict = Gate.run ~strict:true ~baseline ~current ~pct:10.0 () in
  Alcotest.(check int) "strict: the omission fails" 1
    (List.length strict.Gate.failures);
  Alcotest.(check int) "strict: no separate warning" 0
    (List.length strict.Gate.warnings);
  Alcotest.(check bool) "strict failure carries NaN current" true
    (Float.is_nan (List.hd strict.Gate.failures).Gate.current);
  (* A real regression fails non-strict too. *)
  let regressed = gate_doc [ bench_doc ~methods:[ ("pp", 2.0); ("ppp", 1.0) ] "x" ] in
  Alcotest.(check int) "regression fails non-strict" 1
    (List.length (gate_failures ~baseline ~current:regressed ~pct:10.0))

(* A [quality] section object whose methods overlap the truth by
   [overlaps] percent. *)
let quality_obj overlaps =
  Jsonx.Obj
    [
      ( "methods",
        Jsonx.Obj
          (List.map
             (fun (m, v) -> (m, Jsonx.Obj [ ("overlap_pct", Jsonx.Float v) ]))
             overlaps) );
    ]

(* The quality floor over one benchmark row per [quality] object. *)
let quality_floor objs =
  match
    Gate.floors ~sections:[ Report.quality ]
      (gate_doc
         (List.mapi
            (fun i q ->
              Jsonx.Obj
                [ ("name", Jsonx.Str (Printf.sprintf "b%d" i)); ("quality", q) ])
            objs))
  with
  | [ ("quality", verdict) ] -> verdict
  | _ -> Alcotest.fail "expected the quality floor alone"

let test_gate_floors () =
  let row ppp =
    quality_obj [ ("edge", 14.1); ("pp", 77.7); ("tpp", 77.8); ("ppp", ppp) ]
  in
  (match quality_floor [ row 65.7; row 60.0 ] with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "a worst ppp overlap of 60%% fails: %s" msg);
  (match quality_floor [ row 65.7; row 59.99 ] with
  | Ok msg -> Alcotest.failf "a worst ppp overlap of 59.99%% passes: %s" msg
  | Error msg ->
      Alcotest.(check bool) "the failure names the method" true
        (String.ends_with ~suffix:"below its floor: ppp" msg));
  Alcotest.(check bool) "a method missing from a row fails" true
    (Result.is_error
       (quality_floor
          [ row 65.7; quality_obj [ ("edge", 14.1); ("pp", 77.7); ("tpp", 77.8) ] ]));
  Alcotest.(check bool) "a document without the section fails" true
    (match
       Gate.floors ~sections:[ Report.quality ]
         (gate_doc [ Jsonx.Obj [ ("name", Jsonx.Str "x") ] ])
     with
    | [ ("quality", Error _) ] -> true
    | _ -> false)

(* {2 Drift-mode reoptimize and the tiered/drift gate floors} *)

let test_reoptimize_drift () =
  let b = Ppp_workloads.Spec.find "mcf" in
  let p () = b.Ppp_workloads.Spec.build ~scale:1 in
  let sampling = Ppp_interp.Sampling.spec ~seed:7 ~denom:4 () in
  let run () =
    H.reoptimize ~iterations:2 ~sampling ~decay:0.5 ~name:"mcf" (p ())
  in
  let gens = run () in
  Alcotest.(check int) "two generations" 2 (List.length gens);
  let g2 = List.nth gens 1 in
  Alcotest.(check bool) "gen 2 salvaged count mass from the drift store" true
    (g2.H.matched_fraction > 0.0);
  (* Fixed seed, fixed decay: the drift loop is as deterministic as the
     pristine one. *)
  List.iter2
    (fun (a : H.generation) (b : H.generation) ->
      Alcotest.(check bool) "deterministic stability" true
        (approx
           (Decision.stability a.H.decision_diff)
           (Decision.stability b.H.decision_diff));
      Alcotest.(check bool) "deterministic matched fraction" true
        (approx a.H.matched_fraction b.H.matched_fraction))
    gens (run ());
  Alcotest.check_raises "decay outside (0, 1] is rejected"
    (Invalid_argument "Pipeline.reoptimize: decay must be in (0, 1]") (fun () ->
      ignore (H.reoptimize ~decay:0.0 ~name:"mcf" (p ())))

let tiered_doc ~saving ~improvement name =
  Jsonx.Obj
    [
      ("name", Jsonx.Str name);
      ( "tiered",
        Jsonx.Obj
          [
            ("instr_saving", Jsonx.Float saving);
            ("layout", Jsonx.Obj [ ("improvement", Jsonx.Float improvement) ]);
          ] );
      ("drift", Jsonx.Obj [ ("drift_stability", Jsonx.Float 0.6) ]);
    ]

let test_gate_tiered_drift_floors () =
  let baseline = gate_doc [ tiered_doc ~saving:0.9 ~improvement:2.0 "x" ] in
  Alcotest.(check int) "identical documents pass" 0
    (List.length (gate_failures ~baseline ~current:baseline ~pct:5.0));
  (* These are floors: sinking below baseline is the regression,
     exceeding it never is. *)
  let sunk = gate_doc [ tiered_doc ~saving:0.5 ~improvement:(-1.0) "x" ] in
  let fails = gate_failures ~baseline ~current:sunk ~pct:5.0 in
  Alcotest.(check int) "retired saving and layout floors both fail" 2
    (List.length fails);
  Alcotest.(check bool) "failures name the tiered metrics" true
    (List.exists (fun (f : Gate.failure) -> f.Gate.metric = "tiered.instr_saving") fails
    && List.exists
         (fun (f : Gate.failure) -> f.Gate.metric = "tiered.layout.improvement")
         fails);
  let better = gate_doc [ tiered_doc ~saving:0.99 ~improvement:3.0 "x" ] in
  Alcotest.(check int) "improving on the floor passes" 0
    (List.length (gate_failures ~baseline ~current:better ~pct:5.0));
  let churned =
    gate_doc
      [
        Jsonx.Obj
          [
            ("name", Jsonx.Str "x");
            ("drift", Jsonx.Obj [ ("drift_stability", Jsonx.Float 0.2) ]);
          ];
      ]
  in
  let fails = Gate.run ~baseline ~current:churned ~pct:5.0 () in
  Alcotest.(check bool) "drift stability floor fails on churn" true
    (List.exists
       (fun (f : Gate.failure) -> f.Gate.metric = "drift.drift_stability")
       fails.Gate.failures);
  Alcotest.(check bool) "dropping the tiered object only warns (lax)" true
    (List.exists
       (fun (w : Gate.warning) -> w.Gate.metric = "tiered")
       fails.Gate.warnings);
  let strict = Gate.run ~strict:true ~baseline ~current:churned ~pct:5.0 () in
  Alcotest.(check bool) "strict turns the missing tiered object fatal" true
    (List.exists
       (fun (f : Gate.failure) -> f.Gate.metric = "tiered")
       strict.Gate.failures)

(* {2 VM telemetry} *)

(* Everything observable about an outcome, canonically rendered; the
   profile sections reuse the dump writer so nothing is forgotten. *)
let outcome_digest p (o : Interp.outcome) =
  Printf.sprintf "ret=%s out=%s base=%d instr=%d dyn=%d paths=%d term=%s\n%s"
    (match o.Interp.return_value with
    | None -> "-"
    | Some v -> string_of_int v)
    (String.concat "," (List.map string_of_int o.Interp.output))
    o.Interp.base_cost o.Interp.instr_cost o.Interp.dyn_instrs o.Interp.dyn_paths
    (match o.Interp.termination with
    | Interp.Finished -> "finished"
    | Interp.Out_of_fuel { stack_depth } ->
        Printf.sprintf "out_of_fuel(%d)" stack_depth)
    (Raw.to_string
       (Raw.of_program ?edges:o.Interp.edge_profile ?paths:o.Interp.path_profile
          p))

let prop_telemetry_transparent =
  QCheck.Test.make
    ~name:"outcomes are byte-identical with and without a telemetry ring"
    ~count:15
    QCheck.(pair small_int (option (int_range 50 5000)))
    (fun (seed, fuel) ->
      let p = Gen.program ~seed in
      let config =
        match fuel with
        | None -> Interp.default_config
        | Some fuel -> { Interp.default_config with fuel }
      in
      let plain = Interp.run ~config p in
      (* A program shorter than the interval would never be sampled. *)
      let interval = if plain.Interp.dyn_instrs < 7 then 1 else 7 in
      let ring = Telemetry.create ~capacity:16 ~interval () in
      let sampled =
        Interp.run ~config:{ config with telemetry = Some ring } p
      in
      Telemetry.taken ring > 0
      && outcome_digest p plain = outcome_digest p sampled)

let test_telemetry_ring () =
  let p = Gen.program ~seed:0 in
  let ring = Telemetry.create ~capacity:4 ~interval:1 () in
  let o = Interp.run ~config:{ Interp.default_config with telemetry = Some ring } p in
  let taken = Telemetry.taken ring in
  Alcotest.(check bool) "samples were taken" true (taken > 4);
  Alcotest.(check int) "ring keeps the newest capacity samples" 4
    (List.length (Telemetry.samples ring));
  Alcotest.(check int) "older samples counted as dropped" (taken - 4)
    (Telemetry.dropped ring);
  let seqs = List.map (fun s -> s.Telemetry.seq) (Telemetry.samples ring) in
  Alcotest.(check (list int)) "retained seqs are the newest, in order"
    (List.init 4 (fun i -> taken - 4 + i))
    seqs;
  List.iter
    (fun s ->
      Alcotest.(check bool) "progress counters never exceed the outcome" true
        (s.Telemetry.dyn_instrs <= o.Interp.dyn_instrs
        && s.Telemetry.base_cost <= o.Interp.base_cost
        && s.Telemetry.dyn_paths <= o.Interp.dyn_paths))
    (Telemetry.samples ring);
  List.iter
    (fun (_, d_instrs, d_paths) ->
      Alcotest.(check bool) "windowed rates are non-negative" true
        (d_instrs >= 0 && d_paths >= 0))
    (Telemetry.rates ring);
  Alcotest.(check int) "rates has one entry per window" 3
    (List.length (Telemetry.rates ring));
  let json = Jsonx.canonical (Telemetry.to_json ring) in
  Alcotest.(check bool) "telemetry JSON round-trips" true
    (Jsonx.of_string (Jsonx.to_string json) = json);
  Telemetry.reset ring;
  Alcotest.(check int) "reset forgets samples" 0 (Telemetry.taken ring);
  Alcotest.(check int) "reset forgets drops" 0 (Telemetry.dropped ring);
  Alcotest.(check (list int)) "reset empties the ring" []
    (List.map (fun s -> s.Telemetry.seq) (Telemetry.samples ring))

let test_telemetry_metrics () =
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled false)
    (fun () ->
      let ring = Telemetry.create ~capacity:8 ~interval:5 () in
      ignore
        (Interp.run
           ~config:{ Interp.default_config with telemetry = Some ring }
           (Gen.program ~seed:4));
      let snap = Metrics.snapshot () in
      Alcotest.(check (option int)) "vm.telemetry.samples counts taken"
        (Some (Telemetry.taken ring))
        (Metrics.counter_value snap "vm.telemetry.samples");
      Alcotest.(check (option int)) "vm.telemetry.dropped counts evictions"
        (Some (Telemetry.dropped ring))
        (Metrics.counter_value snap "vm.telemetry.dropped"))

(* {2 Trace counters, metadata, and escaping} *)

let test_trace_counters_and_escaping () =
  Trace.start ();
  Fun.protect ~finally:Trace.stop (fun () ->
      (* Hostile names: quotes, backslashes, control bytes. Every string
         must escape through Jsonx into standard JSON. *)
      Trace.label_process ~thread:"th\"read\\" "pp\"pc\n\x01";
      let ring = Telemetry.create ~capacity:8 ~interval:3 () in
      ignore
        (Interp.run
           ~config:{ Interp.default_config with telemetry = Some ring }
           (Gen.program ~seed:6));
      Telemetry.emit_trace_counters ~name:"vm\"x" ring;
      let events = Trace.events () in
      let metadata =
        List.filter (fun (e : Trace.event) -> e.Trace.ph = `Metadata) events
      in
      let counters =
        List.filter (fun (e : Trace.event) -> e.Trace.ph = `Counter) events
      in
      Alcotest.(check int) "process and thread metadata" 2
        (List.length metadata);
      Alcotest.(check (list string)) "metadata event names"
        [ "process_name"; "thread_name" ]
        (List.sort compare
           (List.map (fun (e : Trace.event) -> e.Trace.name) metadata));
      Alcotest.(check int) "one counter event per retained sample"
        (List.length (Telemetry.samples ring))
        (List.length
           (List.filter
              (fun (e : Trace.event) -> e.Trace.name = "vm\"x.cost")
              counters));
      let ts =
        List.filter_map
          (fun (e : Trace.event) ->
            if e.Trace.name = "vm\"x.paths" then Some e.Trace.ts_us else None)
          counters
      in
      Alcotest.(check bool) "counter timestamps are non-decreasing" true
        (List.for_all2 (fun a b -> a <= b) ts (List.tl ts @ [ infinity ]));
      (* The full envelope, hostile bytes and all, is standard JSON. *)
      let text = Jsonx.to_string (Trace.to_json ()) in
      let json = Jsonx.of_string text in
      Alcotest.(check bool) "trace JSON with hostile names round-trips" true
        (Jsonx.member json "traceEvents" <> None))

(* {2 Histogram merge properties (Metrics.merge)} *)

let bounds = [| 1.0; 10.0; 100.0 |]

let snapshot_gen =
  let open QCheck.Gen in
  let histogram =
    map2
      (fun buckets sum ->
        Metrics.Histogram
          {
            bounds;
            buckets = Array.of_list buckets;
            sum = float_of_int sum;
            observations = List.fold_left ( + ) 0 buckets;
          })
      (list_repeat 4 (int_bound 1000))
      (int_bound 10_000)
  in
  let value name =
    match name.[0] with
    | 'h' -> histogram
    | 'c' -> map (fun n -> Metrics.Counter n) (int_bound 1000)
    | _ -> map (fun n -> Metrics.Gauge (float_of_int n)) (int_bound 100)
  in
  let entry name = map (fun v -> (name, v)) (value name) in
  let names = [ "c.one"; "c.two"; "g.one"; "h.one"; "h.two" ] in
  (* Each snapshot carries a random sorted subset of a shared name pool,
     so merges hit both the both-sides and one-side paths. *)
  map2
    (fun keep entries ->
      List.filteri (fun i _ -> List.nth keep i) entries)
    (list_repeat (List.length names) bool)
    (flatten_l (List.map entry names))

let arb_snapshot =
  QCheck.make ~print:(fun s -> Fmt.str "%a" Metrics.pp_snapshot s) snapshot_gen

let prop_merge_commutative =
  QCheck.Test.make ~name:"snapshot merge is commutative" ~count:100
    QCheck.(pair arb_snapshot arb_snapshot)
    (fun (a, b) -> Metrics.merge [ a; b ] = Metrics.merge [ b; a ])

let prop_merge_associative =
  QCheck.Test.make ~name:"snapshot merge is associative" ~count:100
    QCheck.(triple arb_snapshot arb_snapshot arb_snapshot)
    (fun (a, b, c) ->
      Metrics.merge [ Metrics.merge [ a; b ]; c ]
      = Metrics.merge [ a; Metrics.merge [ b; c ] ]
      && Metrics.merge [ a; Metrics.merge [ b; c ] ] = Metrics.merge [ a; b; c ])

let prop_merge_identity =
  QCheck.Test.make ~name:"the empty snapshot is the merge identity" ~count:100
    arb_snapshot (fun a ->
      Metrics.merge [ a; [] ] = Metrics.merge [ a ]
      && Metrics.merge [ []; a ] = Metrics.merge [ a ])

let test_merge_saturates () =
  let near = [ ("c", Metrics.Counter (max_int - 5)) ] in
  let more = [ ("c", Metrics.Counter 100) ] in
  match Metrics.merge [ near; more ] with
  | [ ("c", Metrics.Counter v) ] ->
      Alcotest.(check int) "counter addition saturates" max_int v
  | _ -> Alcotest.fail "unexpected merge shape"

(* {2 The quality report end-to-end} *)

let test_quality_report () =
  let benches = Report.prepare_all ~names:[ "mcf" ] () in
  let rows =
    List.map (QR.bench_row ~iterations:2 ~telemetry_interval:1000) benches
  in
  let doc = Jsonx.canonical (QR.wrap rows) in
  let get j path =
    List.fold_left
      (fun acc k -> Option.bind acc (fun j -> Jsonx.member j k))
      (Some j) path
  in
  let fnum j path =
    match get j path with
    | Some (Jsonx.Float f) -> f
    | Some (Jsonx.Int i) -> float_of_int i
    | _ -> Alcotest.fail (String.concat "." path ^ " missing")
  in
  Alcotest.(check bool) "schema" true
    (get doc [ "schema" ] = Some (Jsonx.Str "ppp-quality/1"));
  let b =
    match get doc [ "benchmarks" ] with
    | Some (Jsonx.Arr [ b ]) -> b
    | _ -> Alcotest.fail "expected one benchmark row"
  in
  List.iter
    (fun m ->
      let ov = fnum b [ "methods"; m; "overlap_pct" ] in
      Alcotest.(check bool) (m ^ " overlap in range") true
        (ov >= 0.0 && ov <= 100.0 +. 1e-9);
      (* The summary's worst-workload floor equals the row for a
         one-workload report. *)
      Alcotest.(check bool) (m ^ " summary floor matches") true
        (approx ov (fnum doc [ "summary"; "methods"; m; "min_overlap" ])))
    QR.method_names;
  (* PPP estimates the truth closely on this workload; the committed CI
     floors rely on that being comfortably high. *)
  Alcotest.(check bool) "ppp overlap is high" true
    (fnum b [ "methods"; "ppp"; "overlap_pct" ] > 50.0);
  (match get b [ "generations" ] with
  | Some (Jsonx.Arr gens) -> Alcotest.(check int) "two generations" 2 (List.length gens)
  | _ -> Alcotest.fail "generations missing");
  Alcotest.(check bool) "telemetry series attached" true
    (fnum b [ "telemetry"; "taken" ] > 0.0);
  Alcotest.(check bool) "decision log attached" true
    (fnum b [ "decisions"; "count" ] >= 0.0);
  (* The row's quality fields are the bench's quality section, and the
     section's floor reads the overlaps the summary does. *)
  let pb = List.hd benches in
  let section = Jsonx.canonical (Report.quality.Report.json pb) in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " comes from the quality section") true
        (get b [ k ] = Jsonx.member section k))
    [ "measured_total"; "measured_distinct"; "methods" ];
  (match
     Gate.floors ~sections:[ Report.quality ]
       (Report.bench_json_wrap
          [ Report.bench_json_one ~sections:[ Report.quality ] pb ])
   with
  | [ ("quality", Ok msg) ] ->
      List.iter
        (fun m ->
          let worst =
            Printf.sprintf "%s %.1f%%" m
              (fnum doc [ "summary"; "methods"; m; "min_overlap" ])
          in
          Alcotest.(check bool) (m ^ ": the floor reads the summary's worst") true
            (Test_interp.contains ~sub:worst msg))
        QR.method_names
  | _ -> Alcotest.fail "mcf does not clear the quality floor");
  (* The rendered report is standard JSON (float printing truncates
     precision, so structural equality is checked on the reparse's
     shape, not its values). *)
  let reparsed = Jsonx.of_string (Jsonx.to_string doc) in
  Alcotest.(check bool) "rendered report parses back" true
    (Jsonx.member reparsed "schema" = Some (Jsonx.Str "ppp-quality/1"))

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  qsuite
    [
      prop_overlap_reflexive;
      prop_overlap_symmetric;
      prop_overlap_bounded;
      prop_overlap_faulted;
      prop_divergence_zero_on_self;
      prop_divergence_sums;
      prop_hot_report_sane;
      prop_telemetry_transparent;
      prop_merge_commutative;
      prop_merge_associative;
      prop_merge_identity;
    ]
  @ [
      Alcotest.test_case "overlap degrades monotonically" `Quick
        test_overlap_monotone_degradation;
      Alcotest.test_case "overlap on empty profiles" `Quick test_overlap_empty;
      Alcotest.test_case "composite score" `Quick test_composite;
      Alcotest.test_case "hot report vs itself" `Quick test_hot_report_self;
      Alcotest.test_case "hot report vs empty candidate" `Quick
        test_hot_report_empty_candidate;
      Alcotest.test_case "cross-version remap" `Quick test_remap_cross_version;
      Alcotest.test_case "identity remap" `Quick test_remap_identity;
      Alcotest.test_case "remap keeps unreferenced routines" `Quick
        test_remap_keeps_unreferenced;
      Alcotest.test_case "decision keys ignore magnitudes" `Quick
        test_decision_key_ignores_magnitudes;
      Alcotest.test_case "decision diff and stability" `Quick test_decision_diff;
      Alcotest.test_case "pipeline exposes its decision log" `Quick
        test_pipeline_decisions;
      Alcotest.test_case "reoptimize diffs generations" `Quick
        test_reoptimize_decision_diffs;
      Alcotest.test_case "gate reports missing metrics" `Quick
        test_gate_missing_metric;
      Alcotest.test_case "gate enforces quality floors" `Quick test_gate_floors;
      Alcotest.test_case "reoptimize drift mode" `Quick test_reoptimize_drift;
      Alcotest.test_case "gate enforces tiered and drift floors" `Quick
        test_gate_tiered_drift_floors;
      Alcotest.test_case "telemetry ring" `Quick test_telemetry_ring;
      Alcotest.test_case "telemetry metrics counters" `Quick
        test_telemetry_metrics;
      Alcotest.test_case "trace counters, metadata, escaping" `Quick
        test_trace_counters_and_escaping;
      Alcotest.test_case "histogram merge saturates" `Quick test_merge_saturates;
      Alcotest.test_case "quality report end-to-end" `Quick test_quality_report;
    ]
