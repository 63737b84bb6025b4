(* The session layer: warm/cold differentials (results must be
   byte-identical, only the work differs), the incremental
   re-optimization loop, lowering-duplication regression, and one
   version per routine across generations. *)

module Ir = Ppp_ir.Ir
module Interp = Ppp_interp.Interp
module Config = Ppp_core.Config
module H = Ppp_harness.Pipeline
module Session = Ppp_session.Session
module Metrics = Ppp_obs.Metrics
module Profile_io = Ppp_profile.Profile_io
module Spec = Ppp_workloads.Spec

let bench name =
  match Spec.find_opt name with
  | Some b -> b
  | None -> Alcotest.failf "unknown workload %s" name

let all_methods = [ Config.pp; Config.tpp; Config.ppp ]

let save_profile (prep : H.prepared) =
  Format.asprintf "%t" (fun ppf ->
      Profile_io.save
        ?edges:prep.H.base_outcome.Interp.edge_profile
        ?paths:prep.H.base_outcome.Interp.path_profile ppf prep.H.optimized)

(* {2 Warm vs cold differential} *)

let strip_session snap =
  List.filter
    (fun (name, _) ->
      not (String.length name >= 8 && String.sub name 0 8 = "session."))
    snap

(* Prepare and evaluate every method against one session; return
   everything observable — evaluations, the profile dump, and the full
   metrics snapshot minus the session's own counters. *)
let eval_all ~cache ~name p =
  Metrics.set_enabled true;
  Metrics.reset ();
  let session = Session.create ~enabled:cache ~name () in
  let prep = H.prepare ~session ~name p in
  let evs =
    H.evaluate_edge_profile prep :: List.map (H.evaluate prep) all_methods
  in
  let dump = save_profile prep in
  let snap = strip_session (Metrics.snapshot ()) in
  Metrics.set_enabled false;
  (evs, dump, snap)

let prop_warm_cold_identical =
  QCheck.Test.make ~count:15
    ~name:"warm and cold sessions: byte-identical reports, profiles, metrics"
    QCheck.small_int
    (fun seed ->
      let p = Ppp_workloads.Gen.program ~seed in
      let w_evs, w_dump, w_snap = eval_all ~cache:true ~name:"qc" p in
      let c_evs, c_dump, c_snap = eval_all ~cache:false ~name:"qc" p in
      w_evs = c_evs && String.equal w_dump c_dump && w_snap = c_snap)

let test_warm_cold_workloads () =
  List.iter
    (fun (b : Spec.bench) ->
      let name = b.Spec.bench_name in
      let p = b.Spec.build ~scale:1 in
      let w_evs, w_dump, w_snap = eval_all ~cache:true ~name p in
      let c_evs, c_dump, c_snap = eval_all ~cache:false ~name p in
      Alcotest.(check bool) (name ^ ": evaluations identical") true (w_evs = c_evs);
      Alcotest.(check string) (name ^ ": profile dump identical") c_dump w_dump;
      Alcotest.(check bool)
        (name ^ ": metrics identical modulo session.*")
        true (w_snap = c_snap))
    [ bench "vpr"; bench "mcf"; bench "bzip2"; bench "equake" ]

(* {2 The work saving (acceptance: >= 2x)} *)

(* A disabled session counts every lookup as a miss, so misses are the
   per-artifact work actually performed; the ratio of cold misses over
   warm misses is the saving of sharing one session across the whole
   4-method evaluation. *)
let test_work_ratio () =
  let work ~cache =
    List.fold_left
      (fun acc (b : Spec.bench) ->
        let name = b.Spec.bench_name in
        let s = Session.create ~enabled:cache ~name () in
        let prep = H.prepare ~session:s ~name (b.Spec.build ~scale:1) in
        ignore (H.evaluate_edge_profile prep);
        List.iter (fun c -> ignore (H.evaluate prep c)) all_methods;
        acc + (Session.stats s).Session.misses)
      0
      [ bench "gap"; bench "bzip2"; bench "crafty" ]
  in
  let warm = work ~cache:true and cold = work ~cache:false in
  Alcotest.(check bool)
    (Printf.sprintf
       "warm 4-method evaluation does >= 2x less analysis work (cold %d vs \
        warm %d misses)"
       cold warm)
    true
    (cold >= 2 * warm)

(* {2 Lowering duplication regression} *)

(* Each routine must lower at most once per program generation: the
   preparation's three generations (original, inlined, optimized) may
   each lower a routine once, and the evaluation runs — four methods,
   each re-running the optimized program — must add no structural
   lowerings at all. Before the session refactor every run re-lowered
   the whole program. *)
let test_lower_once_per_generation () =
  Metrics.set_enabled true;
  Metrics.reset ();
  let b = bench "gap" in
  let p = b.Spec.build ~scale:1 in
  let s = Session.create ~name:"gap" () in
  let prep = H.prepare ~session:s ~name:"gap" p in
  let misses () =
    Option.value ~default:0
      (Metrics.counter_value (Metrics.snapshot ()) "session.lower.miss")
  in
  let after_prepare = misses () in
  let bound =
    List.length p.Ir.routines
    + List.length prep.H.inline_stats.Ppp_opt.Inline.touched
    + List.length prep.H.unroll_stats.Ppp_opt.Unroll.touched
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "preparation lowers each routine at most once per generation (%d \
        lowerings, bound %d)"
       after_prepare bound)
    true
    (after_prepare <= bound);
  ignore (H.evaluate_edge_profile prep);
  List.iter (fun c -> ignore (H.evaluate prep c)) all_methods;
  let after_evals = misses () in
  Metrics.set_enabled false;
  Alcotest.(check int) "evaluation adds no structural lowerings" after_prepare
    after_evals

(* {2 Incremental re-optimization} *)

(* The manual equivalent of one reoptimize generation: save the previous
   generation's profile through the wire format, reload it against the
   previous optimized program, and prepare from it — each round with a
   fresh default session, as N separate `pppc opt` invocations would. *)
let manual_roundtrips ~iterations ~name p0 =
  let cur = ref p0 and prev = ref None in
  for _ = 1 to iterations do
    let prep =
      match !prev with
      | None -> H.prepare ~name !cur
      | Some (p : H.prepared) -> (
          match Profile_io.load !cur (save_profile p) with
          | Ok loaded -> H.prepare ~profile:loaded ~name !cur
          | Error _ -> Alcotest.failf "%s: manual profile reload failed" name)
    in
    prev := Some prep;
    cur := prep.H.optimized
  done;
  !cur

let test_iterate_equals_manual () =
  List.iter
    (fun (b : Spec.bench) ->
      let name = b.Spec.bench_name in
      let p = b.Spec.build ~scale:1 in
      let gens = H.reoptimize ~iterations:3 ~name p in
      let final = (List.nth gens 2).H.prep.H.optimized in
      let manual = manual_roundtrips ~iterations:3 ~name p in
      Alcotest.(check string)
        (name ^ ": iterate 3 equals 3 manual round-trips")
        (Ppp_ir.Pp_ir.to_string manual)
        (Ppp_ir.Pp_ir.to_string final))
    [ bench "vpr"; bench "bzip2"; bench "twolf" ]

let prop_iterate_equals_manual =
  QCheck.Test.make ~count:10
    ~name:"iterate N equals N manual round-trips (random programs)"
    QCheck.small_int
    (fun seed ->
      let p = Ppp_workloads.Gen.program ~seed in
      let gens = H.reoptimize ~iterations:2 ~name:"qc" p in
      let final = (List.nth gens 1).H.prep.H.optimized in
      let manual = manual_roundtrips ~iterations:2 ~name:"qc" p in
      String.equal
        (Ppp_ir.Pp_ir.to_string manual)
        (Ppp_ir.Pp_ir.to_string final))

(* Acceptance: iterate 3 runs end-to-end on all 18 workloads, each later
   generation's profile survives the hand-off, and the session's
   invalidation counter accounts for every routine the optimizers
   dirtied. *)
let test_iterate_all_workloads () =
  List.iter
    (fun (b : Spec.bench) ->
      let name = b.Spec.bench_name in
      let p = b.Spec.build ~scale:1 in
      let s = Session.create ~name () in
      let gens = H.reoptimize ~session:s ~iterations:3 ~name p in
      Alcotest.(check int) (name ^ ": three generations") 3 (List.length gens);
      List.iter
        (fun (g : H.generation) ->
          if g.H.gen > 1 then
            Alcotest.(check bool)
              (Printf.sprintf "%s gen %d: profile survives the round-trip" name
                 g.H.gen)
              true
              (g.H.matched_fraction > 0.99))
        gens;
      let dirty_later =
        List.fold_left
          (fun acc (g : H.generation) ->
            if g.H.gen > 1 then acc + List.length g.H.dirty else acc)
          0 gens
      in
      Alcotest.(check bool)
        (name ^ ": invalidations cover every dirtied routine")
        true
        ((Session.stats s).Session.invalidations
        >= List.length p.Ir.routines + dirty_later))
    Spec.all

(* {2 The run memo}

   A disabled session memoizes nothing, so it is the reference for every
   field of a generation: what was dirtied, the profile hand-off, the
   decisions, the optimized program and the instrumented run's costs.
   The session caches analyses only, so every routine is planned under
   the generation's own profile either way. Every outcome the memo
   served must equal a fresh run of its program. A pass whose touched
   set is empty returns its input, so the programs a reoptimize run
   executes with the default config are the input plus one per pass that
   changed something; the one-slot memo must run each of them once. *)

let outcome_text p (o : Interp.outcome) =
  Format.asprintf "%a %a %d %d %d %d %b@.%t"
    Fmt.(option int) o.Interp.return_value
    Fmt.(list int) o.Interp.output
    o.Interp.base_cost o.Interp.instr_cost o.Interp.dyn_instrs
    o.Interp.dyn_paths
    (o.Interp.termination = Interp.Finished)
    (fun ppf ->
      Profile_io.save ?edges:o.Interp.edge_profile
        ?paths:o.Interp.path_profile ppf p)

let test_run_memo_transparent () =
  List.iter
    (fun (b : Spec.bench) ->
      let name = b.Spec.bench_name in
      let p = b.Spec.build ~scale:1 in
      let on = Session.create ~name () in
      let off = Session.create ~enabled:false ~name () in
      let g_on = H.reoptimize ~session:on ~iterations:3 ~name p in
      let g_off = H.reoptimize ~session:off ~iterations:3 ~name p in
      List.iter2
        (fun (a : H.generation) (c : H.generation) ->
          let what field = Printf.sprintf "%s gen %d: %s" name a.H.gen field in
          Alcotest.(check (list string)) (what "dirty") c.H.dirty a.H.dirty;
          Alcotest.(check bool) (what "matched fraction") true
            (a.H.matched_fraction = c.H.matched_fraction);
          Alcotest.(check bool) (what "decisions") true
            (a.H.decisions = c.H.decisions
            && a.H.decision_diff = c.H.decision_diff);
          Alcotest.(check string) (what "optimized program")
            (Ppp_ir.Pp_ir.to_string c.H.prep.H.optimized)
            (Ppp_ir.Pp_ir.to_string a.H.prep.H.optimized);
          Alcotest.(check bool) (what "instrumented overhead") true
            (a.H.instr_overhead = c.H.instr_overhead);
          Alcotest.(check (pair int int)) (what "instrumented run's costs")
            (c.H.instr_cost, c.H.instr_base_cost)
            (a.H.instr_cost, a.H.instr_base_cost);
          let fresh q (o : Interp.outcome) field =
            Alcotest.(check string) (what field)
              (outcome_text q (Interp.run q))
              (outcome_text q o)
          in
          fresh a.H.prep.H.optimized a.H.prep.H.base_outcome
            "base outcome = a fresh run";
          if a.H.gen = 1 then
            fresh p a.H.prep.H.orig_outcome "first outcome = a fresh run")
        g_on g_off;
      let changing =
        List.fold_left
          (fun n (g : H.generation) ->
            let changed touched = if touched = [] then 0 else 1 in
            n
            + changed g.H.prep.H.inline_stats.Ppp_opt.Inline.touched
            + changed g.H.prep.H.unroll_stats.Ppp_opt.Unroll.touched)
          0 g_on
      in
      let st_on = Session.stats on and st_off = Session.stats off in
      Alcotest.(check int) (name ^ ": the disabled session runs every time") 0
        st_off.Session.run_hits;
      Alcotest.(check int)
        (name ^ ": every run is served or run")
        st_off.Session.run_misses
        (st_on.Session.run_hits + st_on.Session.run_misses);
      Alcotest.(check int)
        (name ^ ": each distinct program runs once")
        (1 + changing) st_on.Session.run_misses)
    Spec.all

(* A program the session has not just synced misses, even if it is the
   one in the slot; synced again, it hits and shares the outcome. *)
let test_run_memo_needs_sync () =
  let p = (bench "mcf").Spec.build ~scale:1 in
  let s = Session.create ~name:"mcf" () in
  ignore (Session.sync s p);
  let o1 = Session.run s p in
  let o2 = Session.run s p in
  Alcotest.(check bool) "a synced repeat shares the outcome" true (o1 == o2);
  let copy = { p with Ir.main = p.Ir.main } in
  let o3 = Session.run s copy in
  Alcotest.(check bool) "an unsynced program runs" true (o3 != o1);
  ignore (Session.sync s copy);
  Alcotest.(check bool) "synced, an equal program hits" true
    (Session.run s copy == o1);
  let st = Session.stats s in
  Alcotest.(check (pair int int)) "run hits and misses" (2, 2)
    (st.Session.run_hits, st.Session.run_misses)

(* {2 One version per routine} *)

(* A routine entry holds the version last synced or looked up. After a
   preparation, syncing the original program again leaves the view of
   every routine the optimizers left untouched, and recomputes the view
   of every routine they changed. *)
let test_flip_flop_recomputes_changed () =
  let p = (bench "bzip2").Spec.build ~scale:1 in
  let s = Session.create ~name:"bzip2" () in
  let prep = H.prepare ~session:s ~name:"bzip2" p in
  let fp = Ppp_resilience.Fingerprint.routine in
  let changed (r : Ir.routine) =
    match
      List.find_opt
        (fun (q : Ir.routine) -> q.Ir.name = r.Ir.name)
        prep.H.optimized.Ir.routines
    with
    | Some q -> fp q <> fp r
    | None -> true
  in
  Alcotest.(check bool) "the optimizers changed some routines, not all" true
    (List.exists changed p.Ir.routines
    && not (List.for_all changed p.Ir.routines));
  ignore (Session.sync s p);
  List.iter
    (fun (r : Ir.routine) ->
      let before = Session.stats s in
      ignore (Session.view s r);
      let after = Session.stats s in
      Alcotest.(check (pair int int))
        (r.Ir.name
        ^ if changed r then ": changed, misses" else ": untouched, hits")
        (if changed r then (0, 1) else (1, 0))
        ( after.Session.hits - before.Session.hits,
          after.Session.misses - before.Session.misses ))
    p.Ir.routines

let test_sync_idempotent () =
  let p = (bench "mcf").Spec.build ~scale:1 in
  let s = Session.create ~name:"mcf" () in
  let first = Session.sync s p in
  Alcotest.(check int) "first sync dirties everything"
    (List.length p.Ir.routines) (List.length first);
  let inv = (Session.stats s).Session.invalidations in
  Alcotest.(check (list string)) "re-syncing an unchanged program is a no-op"
    [] (Session.sync s p);
  Alcotest.(check int) "no-op sync invalidates nothing" inv
    (Session.stats s).Session.invalidations

let test_disabled_session_counts_misses () =
  let p = (bench "mcf").Spec.build ~scale:1 in
  let s = Session.create ~enabled:false ~name:"mcf" () in
  ignore (Session.sync s p);
  List.iter (fun r -> ignore (Session.view s r)) p.Ir.routines;
  List.iter (fun r -> ignore (Session.view s r)) p.Ir.routines;
  let st = Session.stats s in
  Alcotest.(check int) "disabled session never hits" 0 st.Session.hits;
  Alcotest.(check int) "disabled session counts every lookup as a miss"
    (2 * List.length p.Ir.routines)
    st.Session.misses

(* {2 One profile per routine}

   A routine entry keeps its flow context for the latest profile only.
   After three generations, a routine that no optimizer touched still
   hits under generation 3's edge profile, and misses under generation
   1's: a long-lived session (a daemon worker's) keeps no older
   generation's profile alive through it. *)
let test_ctx_latest_profile_only () =
  let p = (bench "bzip2").Spec.build ~scale:1 in
  let s = Session.create ~name:"bzip2" () in
  let gens = H.reoptimize ~session:s ~iterations:3 ~name:"bzip2" p in
  let ep (g : H.generation) =
    Option.get g.H.prep.H.base_outcome.Interp.edge_profile
  in
  let g1 = List.nth gens 0 and g3 = List.nth gens 2 in
  let unchanged =
    List.filter
      (fun (r : Ir.routine) ->
        match List.find_opt (fun (q : Ir.routine) -> q.Ir.name = r.Ir.name)
                g3.H.prep.H.optimized.Ir.routines
        with
        | Some q ->
            Ppp_resilience.Fingerprint.routine q
            = Ppp_resilience.Fingerprint.routine r
        | None -> false)
      g1.H.prep.H.optimized.Ir.routines
  in
  Alcotest.(check bool) "some routine is untouched after generation 1" true
    (unchanged <> []);
  let misses ep =
    let before = (Session.stats s).Session.misses in
    List.iter (fun r -> ignore (Session.ctx s ~ep r)) unchanged;
    (Session.stats s).Session.misses - before
  in
  Alcotest.(check int) "generation 3's profile hits" 0 (misses (ep g3));
  Alcotest.(check int) "generation 1's profile misses" (List.length unchanged)
    (misses (ep g1))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_warm_cold_identical;
    Alcotest.test_case "warm/cold identical on workloads" `Quick
      test_warm_cold_workloads;
    Alcotest.test_case "warm session halves the analysis work" `Quick
      test_work_ratio;
    Alcotest.test_case "each routine lowers at most once per generation" `Quick
      test_lower_once_per_generation;
    Alcotest.test_case "iterate equals manual round-trips" `Quick
      test_iterate_equals_manual;
    QCheck_alcotest.to_alcotest prop_iterate_equals_manual;
    Alcotest.test_case "iterate 3 is incremental on all workloads" `Slow
      test_iterate_all_workloads;
    Alcotest.test_case "a flip-flop recomputes changed routines" `Quick
      test_flip_flop_recomputes_changed;
    Alcotest.test_case "sync is idempotent" `Quick test_sync_idempotent;
    Alcotest.test_case "disabled sessions count misses" `Quick
      test_disabled_session_counts_misses;
    Alcotest.test_case "run memo: same generations as a disabled session"
      `Slow test_run_memo_transparent;
    Alcotest.test_case "run memo: only a just-synced program hits" `Quick
      test_run_memo_needs_sync;
    Alcotest.test_case "flow artifacts keep the latest profile only" `Quick
      test_ctx_latest_profile_only;
  ]
