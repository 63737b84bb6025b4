(* Tiered in-VM re-optimization, tested as a transparency contract plus a
   protocol contract. Transparency: a tiered run — routines swapping from
   their instrumented variant to an optimized re-lowering mid-run, at
   frame entries and loop back-edge OSR points — must be byte-identical
   in program outcome to the untiered run, on every workload, method and
   fuel budget; what tiering IS allowed to change is instr_cost and the
   frozen frequency tables. Protocol: the two engines must agree on the
   FULL digest (tables, costs, and the tier decision log) under any
   tier/sampling combination, which pins down the canonical resolution
   order (trip, tick, tier-override) and the frames-keep-their-variant
   rule; and the session must be point-invalidated for exactly the
   swapped routines. *)

module Graph = Ppp_cfg.Graph
module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Edge_profile = Ppp_profile.Edge_profile
module Path_profile = Ppp_profile.Path_profile
module Interp = Ppp_interp.Interp
module Instr_rt = Ppp_interp.Instr_rt
module Sampling = Ppp_interp.Sampling
module Tier = Ppp_interp.Tier
module Telemetry = Ppp_interp.Telemetry
module Obs = Ppp_obs.Metrics
module Spec = Ppp_workloads.Spec
module Gen = Ppp_workloads.Gen
module Config = Ppp_core.Config
module Instrument = Ppp_core.Instrument
module Pipeline = Ppp_harness.Pipeline

(* The program-outcome digest: everything the program itself observes or
   produces. Instrumentation cost and table state are excluded — they
   are the only things a tier swap is allowed to change. *)
let outcome_digest (p : Ir.program) (o : Interp.outcome) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.bprintf b fmt in
  pf "ret=%s\n"
    (match o.Interp.return_value with
    | None -> "-"
    | Some v -> string_of_int v);
  pf "out=%s\n" (String.concat "," (List.map string_of_int o.Interp.output));
  pf "base=%d dyn_instrs=%d dyn_paths=%d\n" o.Interp.base_cost
    o.Interp.dyn_instrs o.Interp.dyn_paths;
  pf "term=%s\n"
    (match o.Interp.termination with
    | Interp.Finished -> "finished"
    | Interp.Out_of_fuel { stack_depth } ->
        Printf.sprintf "out_of_fuel(depth=%d)" stack_depth);
  let routines =
    List.sort compare
      (List.map (fun (r : Ir.routine) -> r.Ir.name) p.Ir.routines)
  in
  (match o.Interp.edge_profile with
  | None -> pf "edges=none\n"
  | Some ep ->
      List.iter
        (fun name ->
          let view = Cfg_view.of_routine (Ir.routine p name) in
          let n = Graph.num_edges (Cfg_view.graph view) in
          pf "edges %s:" name;
          for e = 0 to n - 1 do
            pf " %d" (Edge_profile.routine_freq ep name e)
          done;
          pf "\n")
        routines);
  (match o.Interp.path_profile with
  | None -> pf "paths=none\n"
  | Some pp ->
      List.iter
        (fun name ->
          let t = Path_profile.routine pp name in
          let entries =
            Path_profile.fold t ~init:[] ~f:(fun acc path n ->
                (path, n) :: acc)
            |> List.sort compare
          in
          pf "paths %s:" name;
          List.iter
            (fun (path, n) ->
              pf " [%s]=%d"
                (String.concat "-" (List.map string_of_int path))
                n)
            entries;
          pf "\n")
        routines);
  Buffer.contents b

(* The full digest adds what tiering IS allowed to change, plus the
   decision log itself; used for the cross-engine agreement check, which
   must hold bit for bit even for the frozen tables. *)
let full_digest p (o : Interp.outcome) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.bprintf b fmt in
  pf "%s" (outcome_digest p o);
  pf "instr=%d\n" o.Interp.instr_cost;
  (match o.Interp.instr_state with
  | None -> pf "tables=none\n"
  | Some state ->
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) state [] in
      List.iter
        (fun name ->
          let t = Hashtbl.find state name in
          let entries = ref [] in
          Instr_rt.Table.iter_nonzero t (fun k n ->
              entries := (k, n) :: !entries);
          pf "table %s:" name;
          List.iter
            (fun (k, n) -> pf " %d=%d" k n)
            (List.sort compare !entries);
          pf " cold=%d lost=%d total=%d\n" (Instr_rt.Table.cold t)
            (Instr_rt.Table.lost t)
            (Instr_rt.Table.dynamic_total t))
        (List.sort compare names));
  List.iter
    (fun (d : Tier.decision) ->
      pf "tier %s trips=%d gen=%d reordered=%b\n" d.Tier.d_routine
        d.Tier.d_trips d.Tier.d_gen (d.Tier.d_order <> None))
    o.Interp.tier_decisions;
  Buffer.contents b

let prior_edges p =
  match
    (Interp.run ~engine:Interp.Reference ~config:Interp.default_config p)
      .Interp.edge_profile
  with
  | Some ep -> ep
  | None -> Alcotest.fail "no edge profile from the prior run"

let methods p =
  let ep = prior_edges p in
  [
    ("none", None);
    ("pp", Some (Instrument.instrument p ep Config.pp).Instrument.rt);
    ("tpp", Some (Instrument.instrument p ep Config.tpp).Instrument.rt);
    ("ppp", Some (Instrument.instrument p ep Config.ppp).Instrument.rt);
  ]

(* A deliberately adversarial planner: entry first, every other block in
   reverse — a genuine re-lowering for any routine with >= 3 blocks, so
   OSR crossings have to map offsets across structurally different code
   arrays. Deterministic and engine-blind (it sees only what [Tier.fire]
   passes). *)
let reversal_planner (p : Ir.program) : Tier.planner =
  let nblocks = Hashtbl.create 17 in
  List.iter
    (fun (r : Ir.routine) ->
      Hashtbl.replace nblocks r.Ir.name (Array.length r.Ir.blocks))
    p.Ir.routines;
 fun ~routine ~counters:_ ->
  match Hashtbl.find_opt nblocks routine with
  | Some n when n >= 3 ->
      Some (Array.init n (fun i -> if i = 0 then 0 else n - i))
  | _ -> None

let tier_specs p =
  [
    ("strip", Tier.spec ~threshold:2 ());
    ("reorder", Tier.spec ~threshold:2 ~plan:(reversal_planner p) ());
    ("budget1", Tier.spec ~threshold:1 ~budget:1 ~plan:(reversal_planner p) ());
  ]

(* The transparency + agreement check for one workload: for every
   method, fuel budget and tier spec, the tiered run's program outcome
   equals the untiered run's (per engine), and the two engines agree on
   the full digest, decision log included. *)
let check_workload name p =
  List.iter
    (fun (mname, instrumentation) ->
      List.iter
        (fun (fname, fuel) ->
          let base_config =
            { Interp.default_config with Interp.instrumentation; fuel }
          in
          let base_vm =
            outcome_digest p (Interp.run ~engine:Interp.Vm ~config:base_config p)
          in
          List.iter
            (fun (sname, spec) ->
              let config =
                { base_config with Interp.tier = Some spec }
              in
              let vm = Interp.run ~engine:Interp.Vm ~config p in
              let r = Interp.run ~engine:Interp.Reference ~config p in
              Alcotest.(check string)
                (Printf.sprintf "%s/%s/%s/%s transparent" name mname fname
                   sname)
                base_vm (outcome_digest p vm);
              Alcotest.(check string)
                (Printf.sprintf "%s/%s/%s/%s engines agree" name mname fname
                   sname)
                (full_digest p r) (full_digest p vm))
            (tier_specs p))
        [ ("full", Interp.default_config.Interp.fuel); ("starved", 5_000) ])
    (methods p)

let workload_case (bench : Spec.bench) =
  Alcotest.test_case bench.Spec.bench_name `Quick (fun () ->
      check_workload bench.Spec.bench_name (bench.Spec.build ~scale:1))

(* Walk fuel through a band that crosses many swap points: every
   exhaustion boundary must land identically with and without tiering,
   and across engines — the OSR retarget may never lose or duplicate a
   charge. *)
let fuel_walk () =
  let p = (Spec.find "vpr").Spec.build ~scale:1 in
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
  in
  let spec = Tier.spec ~threshold:2 ~plan:(reversal_planner p) () in
  for fuel = 400 to 460 do
    let base_config =
      { Interp.default_config with Interp.instrumentation; fuel }
    in
    let config = { base_config with Interp.tier = Some spec } in
    let vm = Interp.run ~engine:Interp.Vm ~config p in
    Alcotest.(check string)
      (Printf.sprintf "fuel=%d transparent" fuel)
      (outcome_digest p (Interp.run ~engine:Interp.Vm ~config:base_config p))
      (outcome_digest p vm);
    Alcotest.(check string)
      (Printf.sprintf "fuel=%d engines agree" fuel)
      (full_digest p (Interp.run ~engine:Interp.Reference ~config p))
      (full_digest p vm)
  done

(* Sampling composes with tiering: the burst schedule keeps its
   chronology (ticks are consumed at every decision point whether or not
   the tier already fired), swaps win the resolution, and no frame ever
   executes a stale variant — all observable as program-outcome
   transparency plus bitwise cross-engine agreement on the sampled
   tables. *)
let sampling_composition () =
  List.iter
    (fun bench_name ->
      let p = (Spec.find bench_name).Spec.build ~scale:1 in
      let instrumentation =
        Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
      in
      List.iter
        (fun sampling ->
          List.iter
            (fun (sname, tier) ->
              List.iter
                (fun fuel ->
                  let base_config =
                    {
                      Interp.default_config with
                      Interp.instrumentation;
                      fuel;
                      sampling;
                    }
                  in
                  let config = { base_config with Interp.tier = Some tier } in
                  let vm = Interp.run ~engine:Interp.Vm ~config p in
                  Alcotest.(check string)
                    (Printf.sprintf "%s/%s/fuel=%d transparent" bench_name
                       sname fuel)
                    (outcome_digest p
                       (Interp.run ~engine:Interp.Vm ~config:base_config p))
                    (outcome_digest p vm);
                  Alcotest.(check string)
                    (Printf.sprintf "%s/%s/fuel=%d engines agree" bench_name
                       sname fuel)
                    (full_digest p
                       (Interp.run ~engine:Interp.Reference ~config p))
                    (full_digest p vm))
                [ Interp.default_config.Interp.fuel; 5_000 ])
            (tier_specs p))
        [
          None;
          Some (Sampling.spec ~denom:4 ~burst:2 ~seed:11 ());
          Some (Sampling.spec ~denom:16 ~seed:7 ());
        ])
    [ "vpr"; "crafty" ]

(* QCheck: over random programs and random tier parameters, swaps at
   arbitrary call boundaries and back edges preserve the program
   outcome, and the engines agree on the full digest — i.e. frames in
   flight keep their entry-time variant and the controller's log is a
   pure function of the run. *)
let qcheck_swap_protocol =
  QCheck.Test.make ~count:60 ~name:"tier swap protocol on random programs"
    QCheck.(triple small_nat small_nat bool)
    (fun (seed, t, reorder) ->
      let p = Gen.program ~seed in
      let threshold = 1 + (t mod 5) in
      let instrumentation =
        Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
      in
      let spec =
        if reorder then Tier.spec ~threshold ~plan:(reversal_planner p) ()
        else Tier.spec ~threshold ()
      in
      let base_config =
        { Interp.default_config with Interp.instrumentation; fuel = 50_000 }
      in
      let config = { base_config with Interp.tier = Some spec } in
      let vm = Interp.run ~engine:Interp.Vm ~config p in
      let transparent =
        outcome_digest p (Interp.run ~engine:Interp.Vm ~config:base_config p)
        = outcome_digest p vm
      in
      let agree =
        full_digest p (Interp.run ~engine:Interp.Reference ~config p)
        = full_digest p vm
      in
      if not transparent then
        QCheck.Test.fail_report "tiered run changed the program outcome";
      if not agree then
        QCheck.Test.fail_report "engines disagree under tiering";
      true)

(* The controller's own arithmetic: one fire per routine at the exact
   threshold crossing, budget spent per swap, a denied crossing counted
   once — never per subsequent trip — and no trip counted after the
   decision. *)
let controller_accounting () =
  let spec = Tier.spec ~threshold:3 ~budget:1 () in
  let t = Tier.start spec ~nroutines:2 in
  Alcotest.(check bool) "below threshold" false (Tier.trip t 0);
  Alcotest.(check bool) "still below" false (Tier.trip t 0);
  Alcotest.(check bool) "crossing fires" true (Tier.trip t 0);
  ignore (Tier.fire t ~idx:0 ~name:"a" ~counters:[] ~accept:(fun _ -> true));
  Alcotest.(check bool) "tiered" true (Tier.is_tiered t 0);
  Alcotest.(check bool) "no refire" false (Tier.trip t 0);
  for _ = 1 to 2 do
    Alcotest.(check bool) "b below" false (Tier.trip t 1)
  done;
  Alcotest.(check bool) "b denied: budget spent" false (Tier.trip t 1);
  Alcotest.(check bool) "denial is once, not per trip" false (Tier.trip t 1);
  let trips = Tier.trips t in
  Alcotest.(check (list int)) "counts stop at the threshold" [ 3; 3 ]
    [ Telemetry.Trips.count trips 0; Telemetry.Trips.count trips 1 ];
  Alcotest.(check int) "total stops at the decisions" 6
    (Telemetry.Trips.total trips);
  Alcotest.(check bool) "both decided" false
    (Tier.pending t 0 || Tier.pending t 1);
  Alcotest.(check int) "one decision" 1 (List.length (Tier.decisions t));
  Alcotest.(check int) "one swap" 1 (Tier.swaps t);
  (match Tier.decisions t with
  | [ d ] ->
      Alcotest.(check string) "routine" "a" d.Tier.d_routine;
      Alcotest.(check int) "trips at fire" 3 d.Tier.d_trips;
      Alcotest.(check bool) "no planner, no order" true (d.Tier.d_order = None)
  | _ -> Alcotest.fail "expected exactly one decision");
  (match Tier.spec ~threshold:0 () with
  | _ -> Alcotest.fail "threshold 0 must be rejected"
  | exception Invalid_argument _ -> ());
  match Tier.spec ~budget:(-1) () with
  | _ -> Alcotest.fail "negative budget must be rejected"
  | exception Invalid_argument _ -> ()

(* The pipeline wrapper: one tiered run is outcome-identical to the
   two-pass instrumented run, retires instrumentation (instr_cost can
   only shrink), and logs decisions for the hot routines. The session
   needs no invalidation after it: it caches analyses of the prepared
   profiles only, so on every workload, evaluating the prepared state
   after the run answers as before it, and as a fresh preparation does. *)
let tiered_run_pipeline () =
  List.iter
    (fun (b : Spec.bench) ->
      let name = b.Spec.bench_name in
      let p = b.Spec.build ~scale:1 in
      let prepared = Pipeline.prepare ~name p in
      let before = Pipeline.evaluate prepared Config.ppp in
      ignore (Pipeline.tiered_run ~threshold:2 prepared Config.ppp);
      let fresh = Pipeline.evaluate (Pipeline.prepare ~name p) Config.ppp in
      Alcotest.(check bool)
        (name ^ ": evaluation after the run = before it = a fresh one")
        true
        (Pipeline.evaluate prepared Config.ppp = before && fresh = before))
    Spec.all;
  let p = (Spec.find "vpr").Spec.build ~scale:1 in
  let prepared = Pipeline.prepare ~name:"vpr" p in
  let t = Pipeline.tiered_run ~threshold:2 prepared Config.ppp in
  Alcotest.(check bool) "hot workload tiers up" true
    (t.Pipeline.t_decisions <> []);
  (* Same instrumented program, so the tiered single run must agree with
     the two-pass flow on the program outcome... *)
  let untiered =
    Interp.run
      ~config:
        {
          Interp.default_config with
          Interp.instrumentation =
            Some t.Pipeline.t_instrumented.Instrument.rt;
        }
      prepared.Pipeline.optimized
  in
  Alcotest.(check string) "outcome identical to the two-pass run"
    (outcome_digest prepared.Pipeline.optimized untiered)
    (outcome_digest prepared.Pipeline.optimized t.Pipeline.t_outcome);
  (* ... while spending strictly less on instrumentation. *)
  Alcotest.(check bool) "instrumentation cost shrinks" true
    (t.Pipeline.t_outcome.Interp.instr_cost < untiered.Interp.instr_cost)

(* A telemetry ring samples a tiered run, whose charges cross variant
   swaps, without changing it: the outcome and the decisions equal a
   run's without a ring. *)
let tiered_run_telemetry () =
  let p = (Spec.find "bzip2").Spec.build ~scale:1 in
  let run telemetry =
    let prepared = Pipeline.prepare_unoptimized ~name:"bzip2" p in
    (Pipeline.tiered_run ?telemetry prepared Config.ppp).Pipeline.t_outcome
  in
  let ring = Telemetry.create ~interval:300 () in
  let without = run None in
  let with_ring = run (Some ring) in
  Alcotest.(check bool) "the run tiers up" true (without.Interp.tier_decisions <> []);
  Alcotest.(check string) "outcome and decisions unchanged by the ring"
    (full_digest p without) (full_digest p with_ring);
  Alcotest.(check bool) "the ring took samples" true (Telemetry.taken ring > 0)

(* The reference engine runs a tiered pipeline run like the VM, and
   lowers nothing: a tier-up there installs no code. *)
let tiered_run_reference () =
  let lowered engine =
    let p = (Spec.find "vpr").Spec.build ~scale:1 in
    let prepared = Pipeline.prepare_unoptimized ~name:"vpr" p in
    Obs.set_enabled true;
    Obs.reset ();
    let t = Pipeline.tiered_run ~engine prepared Config.ppp in
    let s = Obs.snapshot () in
    Obs.set_enabled false;
    ( full_digest p t.Pipeline.t_outcome,
      Option.value ~default:0 (Obs.counter_value s "session.lower.tier_up") )
  in
  let vm, vm_lowered = lowered Interp.Vm in
  let r, r_lowered = lowered Interp.Reference in
  Alcotest.(check string) "the VM's outcome and decisions" vm r;
  Alcotest.(check bool) "the VM lowers a tier-up" true (vm_lowered > 0);
  Alcotest.(check int) "the reference lowers none" 0 r_lowered

(* The tier.* counter family one run flushes, with the run's outcome. *)
let tier_family ~engine ~config p =
  Obs.set_enabled true;
  Obs.reset ();
  let o = Interp.run ~engine ~config p in
  let s = Obs.snapshot () in
  Obs.set_enabled false;
  ( o,
    List.map
      (fun k -> (k, Option.value ~default:0 (Obs.counter_value s ("tier." ^ k))))
      [ "trips"; "swaps"; "reorders"; "denied_budget"; "entry_swaps"; "osr_swaps" ] )

(* The tier.* metric family flows through the flush like every other
   engine counter, from both engines identically, on every workload.
   A routine trips only up to its decision, so trips never exceed
   threshold x routines. *)
let tier_metrics () =
  let threshold = 2 in
  List.iter
    (fun (b : Spec.bench) ->
      let name = b.Spec.bench_name in
      let p = b.Spec.build ~scale:1 in
      let instrumentation =
        Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
      in
      let config =
        {
          Interp.default_config with
          Interp.instrumentation;
          tier = Some (Tier.spec ~threshold ~plan:(reversal_planner p) ());
        }
      in
      let _, vm = tier_family ~engine:Interp.Vm ~config p in
      let trips = List.assoc "trips" vm in
      Alcotest.(check bool) (name ^ ": trips counted") true (trips > 0);
      Alcotest.(check bool) (name ^ ": swaps counted") true
        (List.assoc "swaps" vm > 0);
      Alcotest.(check bool)
        (name ^ ": trips bounded by threshold x routines")
        true
        (trips <= threshold * List.length p.Ir.routines);
      Alcotest.(check (list (pair string int)))
        (name ^ ": families identical across engines")
        vm
        (snd (tier_family ~engine:Interp.Reference ~config p)))
    Spec.all

(* f(n) recurses to f(n-1) before its own loop, so f's trips go 1..4
   at the four entries, then one per back edge of the innermost loop.
   Threshold 4 fires at f(0)'s entry, threshold 6 inside f(0)'s loop
   (which crosses over itself); either way f fires while its outer
   activations are in flight, and each must cross onto the new variant
   (OSR) at its next back edge, exactly where the reference engine does,
   at full fuel and at every budget below it. *)
let recursive_src =
  {|routine main(0) regs 1 {
entry:
  r0 = call f(3)
  out r0
  ret r0
}
routine f(1) regs 4 {
entry:
  r1 = 0
  br r0, recurse, head
recurse:
  r2 = r0 - 1
  r1 = call f(r2)
  jump head
head:
  r2 = 0
  jump test
test:
  r3 = r2 < 4
  br r3, body, done
body:
  r1 = r1 + r2
  r2 = r2 + 1
  jump test
done:
  ret r1
}|}

let recursive_osr () =
  let p = Ppp_ir.Parse.program_of_string recursive_src in
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.pp).Instrument.rt
  in
  List.iter
    (fun (sname, spec, osr) ->
      let check fuel =
        let config =
          {
            Interp.default_config with
            Interp.instrumentation;
            fuel;
            tier = Some spec;
          }
        in
        let vm, vm_family = tier_family ~engine:Interp.Vm ~config p in
        let r, r_family = tier_family ~engine:Interp.Reference ~config p in
        let label what = Printf.sprintf "%s/fuel=%d %s" sname fuel what in
        Alcotest.(check string) (label "engines agree") (full_digest p r)
          (full_digest p vm);
        Alcotest.(check (list (pair string int)))
          (label "tier families agree") r_family vm_family;
        (vm, vm_family)
      in
      let o, family = check Interp.default_config.Interp.fuel in
      Alcotest.(check int) (sname ^ ": outer activations cross over") osr
        (List.assoc "osr_swaps" family);
      for fuel = 1 to o.Interp.dyn_instrs do
        ignore (check fuel)
      done)
    [
      ("fire at entry", Tier.spec ~threshold:4 (), 3);
      ("fire in loop", Tier.spec ~threshold:6 ~plan:(reversal_planner p) (), 4);
    ]

(* A planner order that [Resolve] refuses installs nothing: the
   identity order, and one that moves the entry block. Each firing
   routine runs its plain stream, exactly as without a planner; nothing
   is lowered; its decision records no order; and [tier.reorders] stays
   0 — on both engines. *)
let refused_orders () =
  let p = Ppp_ir.Parse.program_of_string recursive_src in
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.pp).Instrument.rt
  in
  let planner order : Tier.planner =
   fun ~routine ~counters:_ ->
    Some (order (Array.length (Ir.routine p routine).Ir.blocks))
  in
  let run engine plan =
    let config =
      {
        Interp.default_config with
        Interp.instrumentation;
        tier = Some (Tier.spec ~threshold:1 ?plan ());
      }
    in
    Obs.set_enabled true;
    Obs.reset ();
    let o = Interp.run ~engine ~config p in
    let s = Obs.snapshot () in
    Obs.set_enabled false;
    let count k = Option.value ~default:0 (Obs.counter_value s k) in
    (o, count "tier.reorders", count "session.lower.tier_up")
  in
  List.iter
    (fun (ename, engine) ->
      let stripped, _, _ = run engine None in
      List.iter
        (fun (pname, order) ->
          let label what = Printf.sprintf "%s/%s: %s" ename pname what in
          let o, reorders, lowered = run engine (Some (planner order)) in
          Alcotest.(check int) (label "both routines tier up") 2
            (List.length o.Interp.tier_decisions);
          List.iter
            (fun (d : Tier.decision) ->
              Alcotest.(check bool)
                (label (d.Tier.d_routine ^ " records no order"))
                true (d.Tier.d_order = None))
            o.Interp.tier_decisions;
          Alcotest.(check int) (label "no reorder counted") 0 reorders;
          Alcotest.(check int) (label "nothing lowered") 0 lowered;
          Alcotest.(check string) (label "the plain stream runs")
            (full_digest p stripped) (full_digest p o))
        [
          ("identity", fun n -> Array.init n Fun.id);
          ("entry moved", fun n -> Array.init n (fun i -> n - 1 - i));
        ])
    [ ("vm", Interp.Vm); ("reference", Interp.Reference) ]

(* A sampled tiered run consumes the sampler exactly as the sampled
   untiered run does: the tick is taken at every resolution point
   whether or not its routine has tiered up, so the same on-ticks,
   off-ticks and bursts come out, on every workload. *)
let sampler_chronology () =
  let family config p =
    Obs.set_enabled true;
    Obs.reset ();
    ignore (Interp.run ~engine:Interp.Vm ~config p);
    let s = Obs.snapshot () in
    Obs.set_enabled false;
    List.map
      (fun k -> Option.value ~default:0 (Obs.counter_value s ("rt.sample." ^ k)))
      [ "on_ticks"; "off_ticks"; "bursts" ]
  in
  List.iter
    (fun (b : Spec.bench) ->
      let p = b.Spec.build ~scale:1 in
      let config =
        {
          Interp.default_config with
          Interp.instrumentation =
            Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt;
          sampling = Some (Sampling.spec ~denom:16 ~seed:42 ());
        }
      in
      let untiered = family config p in
      Alcotest.(check bool) (b.Spec.bench_name ^ ": ticks counted") true
        (List.hd untiered > 0);
      List.iter
        (fun (sname, spec) ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s/%s: the untiered run's ticks" b.Spec.bench_name sname)
            untiered
            (family { config with Interp.tier = Some spec } p))
        (tier_specs p))
    Spec.all

let suite =
  List.map workload_case Spec.all
  @ [
      Alcotest.test_case "fuel walk across swap points" `Quick fuel_walk;
      Alcotest.test_case "sampling composes with tiering" `Quick
        sampling_composition;
      QCheck_alcotest.to_alcotest qcheck_swap_protocol;
      Alcotest.test_case "controller accounting" `Quick controller_accounting;
      Alcotest.test_case "pipeline tiered_run + session invalidation" `Quick
        tiered_run_pipeline;
      Alcotest.test_case "tier.* metrics" `Quick tier_metrics;
      Alcotest.test_case "a refused planner order installs nothing" `Quick
        refused_orders;
      Alcotest.test_case "recursive routine crosses over in flight" `Quick
        recursive_osr;
      Alcotest.test_case "tiered_run with a telemetry ring" `Quick
        tiered_run_telemetry;
      Alcotest.test_case "tiered_run on the reference engine" `Quick
        tiered_run_reference;
      Alcotest.test_case "a sampled tiered run ticks like the untiered one"
        `Quick sampler_chronology;
    ]
