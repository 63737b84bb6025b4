(* Differential testing of the two execution engines: the flat VM must be
   byte-identical to the reference tree-walker on every observable — return
   value, output, base/instrumentation cost, termination, edge profiles,
   path profiles, frequency-table state, and the interp.*/rt.* metrics —
   across all 18 workloads x {none, PP, TPP, PPP} x {full, starved fuel},
   plus QCheck-generated random programs and a fine-grained fuel sweep
   that walks the exhaustion point through batched segments. Runs that
   count edges without tracing paths, where the VM counts only spanning
   tree chords, get the same treatment. *)

module Graph = Ppp_cfg.Graph
module Loop = Ppp_cfg.Loop
module Path_numbering = Ppp_cfg.Path_numbering
module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Edge_profile = Ppp_profile.Edge_profile
module Path_profile = Ppp_profile.Path_profile
module Interp = Ppp_interp.Interp
module Instr_rt = Ppp_interp.Instr_rt
module Tier = Ppp_interp.Tier
module Sampling = Ppp_interp.Sampling
module Lower = Ppp_interp.Lower
module Spanning_tree = Ppp_cfg.Spanning_tree
module Static_est = Ppp_profile.Static_est
module Spec = Ppp_workloads.Spec
module Gen = Ppp_workloads.Gen
module Config = Ppp_core.Config
module Instrument = Ppp_core.Instrument
module Obs = Ppp_obs.Metrics

(* Render everything observable about an outcome into one canonical
   string; two engines agree iff their digests are equal, and Alcotest
   shows both sides on a mismatch. *)
let digest (p : Ir.program) (o : Interp.outcome) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.bprintf b fmt in
  pf "ret=%s\n"
    (match o.Interp.return_value with
    | None -> "-"
    | Some v -> string_of_int v);
  pf "out=%s\n" (String.concat "," (List.map string_of_int o.Interp.output));
  pf "base=%d instr=%d dyn_instrs=%d dyn_paths=%d\n" o.Interp.base_cost
    o.Interp.instr_cost o.Interp.dyn_instrs o.Interp.dyn_paths;
  (pf "term=%s\n"
     (match o.Interp.termination with
     | Interp.Finished -> "finished"
     | Interp.Out_of_fuel { stack_depth } ->
         Printf.sprintf "out_of_fuel(depth=%d)" stack_depth));
  let routines =
    List.sort compare (List.map (fun (r : Ir.routine) -> r.Ir.name) p.Ir.routines)
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
            Path_profile.fold t ~init:[] ~f:(fun acc path n -> (path, n) :: acc)
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
  (match o.Interp.instr_state with
  | None -> pf "tables=none\n"
  | Some state ->
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) state [] in
      List.iter
        (fun name ->
          let t = Hashtbl.find state name in
          let entries = ref [] in
          Instr_rt.Table.iter_nonzero t (fun k n -> entries := (k, n) :: !entries);
          pf "table %s:" name;
          List.iter (fun (k, n) -> pf " %d=%d" k n) (List.sort compare !entries);
          pf " cold=%d lost=%d overflow=%d saturated=%b total=%d\n"
            (Instr_rt.Table.cold t) (Instr_rt.Table.lost t)
            (Instr_rt.Table.overflow t)
            (Instr_rt.Table.saturated t)
            (Instr_rt.Table.dynamic_total t))
        (List.sort compare names));
  Buffer.contents b

(* Both engines agree; returns the reference outcome. *)
let diff_outcome label config p =
  let r = Interp.run ~engine:Interp.Reference ~config p in
  let v = Interp.run ~engine:Interp.Vm ~config p in
  Alcotest.(check string) label (digest p r) (digest p v);
  r

let check_diff label config p = ignore (diff_outcome label config p)

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

let check_program name p =
  List.iter
    (fun (mname, instrumentation) ->
      List.iter
        (fun (fname, fuel) ->
          let config =
            { Interp.default_config with Interp.instrumentation; fuel }
          in
          check_diff (Printf.sprintf "%s/%s/%s" name mname fname) config p)
        [ ("full", Interp.default_config.Interp.fuel); ("starved", 5_000) ])
    (methods p)

let workload_case (bench : Spec.bench) =
  Alcotest.test_case bench.Spec.bench_name `Quick (fun () ->
      check_program bench.Spec.bench_name (bench.Spec.build ~scale:1))

(* Walk the exhaustion point instruction by instruction through the
   first few thousand charges: every off-by-one in segment batching or
   the remainder bill shows up here. *)
let fuel_sweep () =
  let p = (Spec.find "bzip2").Spec.build ~scale:1 in
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
  in
  for fuel = 1 to 120 do
    let config = { Interp.default_config with Interp.instrumentation; fuel } in
    check_diff (Printf.sprintf "fuel=%d" fuel) config p
  done;
  List.iter
    (fun fuel ->
      let config = { Interp.default_config with Interp.instrumentation; fuel } in
      check_diff (Printf.sprintf "fuel=%d" fuel) config p)
    [ 503; 2_000; 10_007; 60_013 ]

(* The overflow-bin policy mutates tables on unattributable paths; make
   sure that state machine agrees across engines too. *)
let overflow_policy () =
  let p = (Spec.find "perlbmk").Spec.build ~scale:1 in
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.pp).Instrument.rt
  in
  List.iter
    (fun cap ->
      let config =
        {
          Interp.default_config with
          Interp.instrumentation;
          overflow_policy = Instr_rt.Table.Overflow_bin { cap };
        }
      in
      check_diff (Printf.sprintf "overflow cap=%d" cap) config p)
    [ 1; 16; Instr_rt.Table.default_overflow_cap ]

(* The interp.* and rt.* counters one run flushes. *)
let counters ~engine ~config p =
  Obs.set_enabled true;
  Obs.reset ();
  ignore (Interp.run ~engine ~config p);
  let s = Obs.snapshot () in
  Obs.set_enabled false;
  List.filter_map
    (fun (name, v) ->
      match v with
      | Obs.Counter n
        when n > 0
             && (String.length name >= 7 && String.sub name 0 7 = "interp."
                || (String.length name >= 3 && String.sub name 0 3 = "rt.")) ->
          Some (Printf.sprintf "%s=%d" name n)
      | _ -> None)
    s

let check_counters label config p =
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      Alcotest.(check (list string)) label
        (counters ~engine:Interp.Reference ~config p)
        (counters ~engine:Interp.Vm ~config p))

(* With edge collection and tracing off (the benchmark configuration)
   the engines must still agree on costs and termination. The VM then
   calls [traverse] only on an edge that carries actions, while the
   reference walks every edge, so instrumented runs must also agree on
   tables and per-kind action counts. *)
let bare_config () =
  List.iter
    (fun (bench : Spec.bench) ->
      let p = bench.Spec.build ~scale:1 in
      List.iter
        (fun (mname, instrumentation) ->
          let config =
            {
              Interp.default_config with
              Interp.collect_edges = false;
              trace_paths = false;
              instrumentation;
            }
          in
          let label = Printf.sprintf "%s/%s/bare" bench.Spec.bench_name mname in
          check_diff label config p;
          check_counters (label ^ " counters") config p)
        (methods p))
    Spec.all

(* The instrumented run of [Pipeline.reoptimize] neither counts edges
   nor traces paths, because only its costs and tables are read. Neither
   may depend on the two: a PPP run without them has the outcome, costs
   and table contents of one with them, at full fuel and at budgets that
   exhaust mid-run. *)
let untraced_instrumented () =
  List.iter
    (fun (bench : Spec.bench) ->
      let p = bench.Spec.build ~scale:1 in
      let ep = prior_edges p in
      let full = (Interp.run p).Interp.dyn_instrs in
      List.iter
        (fun fuel ->
          let run traced =
            Interp.run
              ~config:
                {
                  Interp.default_config with
                  Interp.fuel;
                  collect_edges = traced;
                  trace_paths = traced;
                  instrumentation =
                    Some (Instrument.instrument p ep Config.ppp).Instrument.rt;
                }
              p
          in
          let traced = run true in
          Alcotest.(check string)
            (Printf.sprintf "%s/fuel=%d: untraced = traced" bench.Spec.bench_name
               fuel)
            (digest p
               {
                 traced with
                 Interp.edge_profile = None;
                 path_profile = None;
                 dyn_paths = 0;
               })
            (digest p (run false)))
        [ Interp.default_config.Interp.fuel; full / 3; 5_000 ])
    Spec.all

(* The interp.* and rt.* metrics streams must be engine-invariant. *)
let metrics_diff () =
  let p = (Spec.find "vpr").Spec.build ~scale:1 in
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
  in
  check_counters "interp.*/rt.* counters"
    { Interp.default_config with Interp.instrumentation }
    p

(* A routine with more acyclic paths than an OCaml int holds: 70
   sequential if/else diamonds (2^70 paths) inside a 3-trip loop. No
   numbering fits, so placement must refuse it, and the VM's tracer must
   still record every path exactly: its numbering is PP's all-edges one,
   so it cuts the routine into segments whose counts fit. *)
let too_many_paths_program () =
  let module B = Ppp_ir.Builder in
  let b = B.create ~name:"main" ~nparams:0 in
  let i = B.reg b and acc = B.reg b in
  B.mov b acc (Ir.Imm 1);
  B.for_ b i ~from:(Ir.Imm 0) ~below:(Ir.Imm 3) (fun () ->
      for k = 0 to 69 do
        let c = B.bin_ b Ir.And (Ir.Reg acc) (Ir.Imm (1 lsl (k mod 7))) in
        B.if_ b c
          ~then_:(fun () -> B.bin b acc Ir.Add (Ir.Reg acc) (Ir.Imm (k + 1)))
          ~else_:(fun () -> B.bin b acc Ir.Add (Ir.Reg acc) (Ir.Reg i))
      done);
  B.out b (Ir.Reg acc);
  B.ret b (Some (Ir.Reg acc));
  B.program ~main:"main" [ B.finish b ]

let too_many_paths () =
  let p = too_many_paths_program () in
  let inst = Instrument.instrument p (prior_edges p) Config.pp in
  (match (Hashtbl.find inst.Instrument.plans "main").Instrument.decision with
  | Instrument.Uninstrumented Instrument.Too_many_paths -> ()
  | _ -> Alcotest.fail "PP must leave a 2^70-path routine uninstrumented");
  let full = Interp.run ~engine:Interp.Reference p in
  let paths = Path_profile.routine (Option.get full.Interp.path_profile) "main" in
  Alcotest.(check int) "four path executions traced" 4
    (Path_profile.fold paths ~init:0 ~f:(fun acc _ n -> acc + n));
  check_program "2^70 paths" p;
  List.iter
    (fun fuel ->
      check_diff
        (Printf.sprintf "2^70 paths/fuel=%d" fuel)
        { Interp.default_config with Interp.fuel }
        p)
    [ 1; 37; full.Interp.dyn_instrs / 2; full.Interp.dyn_instrs - 1 ]

(* {2 Edge counts derived from traced paths}

   A VM run that traces paths counts no edge as it runs: each edge count
   is the sum over the traced paths that cross it, plus the in-flight
   prefix of every frame still live when fuel runs out. Each case below
   walks the exhaustion point through every budget 1..N of a run that
   needs N charges, so every frame of every live stack is caught at
   every block of its path. *)

let every_budget label config p =
  let full = Interp.run ~engine:Interp.Reference ~config p in
  List.init full.Interp.dyn_instrs (fun i ->
      diff_outcome
        (Printf.sprintf "%s/fuel=%d" label (i + 1))
        { config with Interp.fuel = i + 1 }
        p)

let stack_depth (o : Interp.outcome) =
  match o.Interp.termination with
  | Interp.Finished -> 0
  | Interp.Out_of_fuel { stack_depth } -> stack_depth

(* [walk n] branches, recurses mid-path, then loops: fuel runs out with
   up to six frames live, each suspended part-way through a path. *)
let recursive_src =
  {|routine main(0) regs 2 {
entry:
  r0 = 4
  r1 = call walk(r0)
  out r1
  ret r1
}
routine walk(1) regs 4 {
entry:
  r1 = r0 & 1
  br r1, odd, even
odd:
  r2 = r0 * 3
  jump mid
even:
  r2 = r0 + 7
  jump mid
mid:
  br r0, deeper, leaf
deeper:
  r3 = r0 - 1
  r3 = call walk(r3)
  r2 = r2 + r3
  jump loop
leaf:
  r2 = r2 + 1
  jump loop
loop:
  r3 = r2 & 3
  br r3, step, done
step:
  r2 = r2 - 1
  jump loop
done:
  ret r2
}|}

let derived_recursive () =
  let p = Ppp_ir.Parse.program_of_string recursive_src in
  List.iter
    (fun (mname, instrumentation) ->
      let outs =
        every_budget ("recursive/" ^ mname)
          { Interp.default_config with Interp.instrumentation }
          p
      in
      Alcotest.(check bool)
        (mname ^ ": fuel runs out six frames deep")
        true
        (List.exists (fun o -> stack_depth o = 6) outs))
    (methods p)

(* The cut edges of a routine's tracing: broken like a back edge, but
   not ending the path. *)
let cut_edges (r : Ir.routine) =
  let view = Cfg_view.of_routine r in
  let g = Cfg_view.graph view in
  let ends =
    Loop.breakable_edges (Loop.compute g ~root:(Cfg_view.entry view))
  in
  let tr =
    Path_numbering.tracing g ~entry:(Cfg_view.entry view)
      ~exit:(Cfg_view.exit view) ~ends
  in
  Graph.fold_edges g ~init:[] ~f:(fun acc e ->
      if Path_numbering.restart tr e >= 0 && not (List.mem e ends) then e :: acc
      else acc)

(* The 2^70-path routine: its tracer cuts paths into segments. Fuel
   that runs out after a cut and before the path ends leaves the frame
   with finished segments, whose edges count too. *)
let derived_cut () =
  let p = too_many_paths_program () in
  let cuts = cut_edges (Ir.routine p "main") in
  Alcotest.(check bool) "the routine has cut edges" true (cuts <> []);
  let outs = every_budget "2^70 paths" Interp.default_config p in
  let after_cut (o : Interp.outcome) =
    let ep = Option.get o.Interp.edge_profile in
    let paths = Path_profile.routine (Option.get o.Interp.path_profile) "main" in
    Path_profile.fold paths ~init:0 ~f:(fun acc _ n -> acc + n) = 0
    && List.exists (fun e -> Edge_profile.routine_freq ep "main" e > 0) cuts
  in
  Alcotest.(check bool) "fuel runs out between a cut and the path end" true
    (List.exists after_cut outs)

(* A tiered run: [walk] fires at its fourth entry, so its outer
   activations cross onto the reordered variant at their next back
   edge (OSR), and fuel runs out while they execute it. The planner
   reverses every block after the entry, so that variant has its own
   block offsets. *)
let tiered_recursive_config p =
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.pp).Instrument.rt
  in
  {
    Interp.default_config with
    Interp.instrumentation;
    tier = Some (Tier.spec ~threshold:4 ~plan:(Test_tier.reversal_planner p) ());
  }

let derived_tiered () =
  let p = Ppp_ir.Parse.program_of_string recursive_src in
  let config = tiered_recursive_config p in
  Obs.set_enabled true;
  Obs.reset ();
  let full = Interp.run ~engine:Interp.Vm ~config p in
  let osr = Obs.counter_value (Obs.snapshot ()) "tier.osr_swaps" in
  Obs.set_enabled false;
  Obs.reset ();
  Alcotest.(check bool) "walk tiers up" true (full.Interp.tier_decisions <> []);
  Alcotest.(check bool) "outer activations cross over" true
    (match osr with Some n -> n > 0 | None -> false);
  let outs = every_budget "tiered recursive" config p in
  Alcotest.(check bool) "fuel runs out after the swap, frames live" true
    (List.exists
       (fun o -> o.Interp.tier_decisions <> [] && stack_depth o >= 2)
       outs)

(* Random programs at random budgets, traced with and without PPP
   instrumentation. *)
let qcheck_derived =
  QCheck.Test.make ~count:40 ~name:"random programs, random budgets: derived edges"
    QCheck.(pair small_int (int_bound 1_000_000))
    (fun (seed, r) ->
      let p = Gen.program ~seed in
      let full = Interp.run ~engine:Interp.Reference p in
      let fuel = 1 + (r mod max 1 full.Interp.dyn_instrs) in
      List.iter
        (fun (mname, instrumentation) ->
          check_diff
            (Printf.sprintf "gen(seed=%d)/%s/fuel=%d" seed mname fuel)
            { Interp.default_config with Interp.instrumentation; fuel }
            p)
        (List.filter (fun (m, _) -> m = "none" || m = "ppp") (methods p));
      true)

let qcheck_diff =
  QCheck.Test.make ~count:40 ~name:"random programs: Vm = Reference"
    QCheck.(small_int)
    (fun seed ->
      let p = Gen.program ~seed in
      check_program (Printf.sprintf "gen(seed=%d)" seed) p;
      (* Also starve the generated program near its actual cost, where
         exhaustion lands mid-program rather than never. *)
      let full = Interp.run ~engine:Interp.Reference p in
      let fuel = max 1 (full.Interp.dyn_instrs / 2) in
      check_diff
        (Printf.sprintf "gen(seed=%d)/half-fuel" seed)
        { Interp.default_config with Interp.fuel }
        p;
      true)

(* {2 Edges-only runs}

   A VM run that counts edges without tracing paths counts only the
   chords of each routine's spanning tree and solves the tree edges when
   the run ends, after sinking one unit of flow at the block of every
   frame still live when fuel runs out. Every variant carries the chord
   marks: the instrumented and plain streams a sampled run swaps
   between, and every tier-up generation. *)

let edges_only config =
  { config with Interp.collect_edges = true; trace_paths = false }

(* Uninstrumented, PPP, PPP sampled at 1/16 and PPP tiered under a
   planner that reverses every block after the entry, so each tier-up
   generation is a re-lowering with its own offsets. *)
let edges_only_modes p =
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
  in
  let ppp = { Interp.default_config with Interp.instrumentation } in
  List.map
    (fun (name, config) -> (name, edges_only config))
    [
      ("none", Interp.default_config);
      ("ppp", ppp);
      ("ppp sampled 1/16", { ppp with sampling = Some (Sampling.spec ~seed:7 ~denom:16 ()) });
      ( "ppp tiered",
        { ppp with tier = Some (Tier.spec ~threshold:2 ~plan:(Test_tier.reversal_planner p) ()) } );
    ]

let edges_only_workloads () =
  List.iter
    (fun (bench : Spec.bench) ->
      let p = bench.Spec.build ~scale:1 in
      let full = (Interp.run p).Interp.dyn_instrs in
      List.iter
        (fun (mname, config) ->
          List.iter
            (fun fuel ->
              check_diff
                (Printf.sprintf "%s/%s/edges-only/fuel=%d" bench.Spec.bench_name mname fuel)
                { config with Interp.fuel }
                p)
            [ Interp.default_config.Interp.fuel; full / 3; 5_000 ])
        (edges_only_modes p))
    Spec.all

let edges_only_fuel_sweep () =
  let p = (Spec.find "bzip2").Spec.build ~scale:1 in
  List.iter
    (fun (mname, config) ->
      List.iter
        (fun fuel ->
          check_diff
            (Printf.sprintf "%s/edges-only/fuel=%d" mname fuel)
            { config with Interp.fuel }
            p)
        (List.init 120 succ @ [ 503; 2_000; 10_007; 60_013 ]))
    (edges_only_modes p)

let edges_only_recursive () =
  let p = Ppp_ir.Parse.program_of_string recursive_src in
  List.iter
    (fun (mname, instrumentation) ->
      let outs =
        every_budget ("recursive/edges-only/" ^ mname)
          (edges_only { Interp.default_config with Interp.instrumentation })
          p
      in
      Alcotest.(check bool)
        (mname ^ ": fuel runs out six frames deep")
        true
        (List.exists (fun o -> stack_depth o = 6) outs))
    (methods p)

let edges_only_cut () =
  ignore
    (every_budget "2^70 paths/edges-only"
       (edges_only Interp.default_config)
       (too_many_paths_program ()))

let edges_only_tiered () =
  let p = Ppp_ir.Parse.program_of_string recursive_src in
  let outs =
    every_budget "tiered recursive/edges-only"
      (edges_only (tiered_recursive_config p))
      p
  in
  Alcotest.(check bool) "fuel runs out after the swap, frames live" true
    (List.exists
       (fun o -> o.Interp.tier_decisions <> [] && stack_depth o >= 2)
       outs)

let qcheck_edges_only =
  QCheck.Test.make ~count:40 ~name:"random programs, random budgets: edges-only"
    QCheck.(pair small_int (int_bound 1_000_000))
    (fun (seed, r) ->
      let p = Gen.program ~seed in
      let full = Interp.run ~engine:Interp.Reference p in
      let fuel = 1 + (r mod max 1 full.Interp.dyn_instrs) in
      List.iter
        (fun (mname, instrumentation) ->
          check_diff
            (Printf.sprintf "gen(seed=%d)/%s/edges-only/fuel=%d" seed mname fuel)
            (edges_only { Interp.default_config with Interp.instrumentation; fuel })
            p)
        (List.filter (fun (m, _) -> m = "none" || m = "ppp") (methods p));
      true)

(* A routine whose blocks 3 and 4 form a cycle no path from the entry
   reaches, with an edge out of it into the reachable exit block, and a
   second unreachable cycle (5, 6) on its own. Neither [Ppp_ir.Parse]
   nor [Ppp_ir.Builder] makes one. The static estimate cannot order
   such a graph, so the chord tree falls back to uniform weights. *)
let unreachable_cycle_program () =
  let block label instrs term = { Ir.label; instrs; term } in
  let main =
    {
      Ir.name = "main";
      nparams = 0;
      nregs = 2;
      blocks =
        [|
          block "entry" [| Ir.Mov (0, Ir.Imm 0) |] (Ir.Jump 1);
          block "head"
            [| Ir.Binop (0, Ir.Add, Ir.Reg 0, Ir.Imm 1); Ir.Binop (1, Ir.Lt, Ir.Reg 0, Ir.Imm 5) |]
            (Ir.Branch (Ir.Reg 1, 1, 2));
          block "done" [| Ir.Out (Ir.Reg 0) |] (Ir.Return (Some (Ir.Reg 0)));
          block "u1" [| Ir.Out (Ir.Imm 1) |] (Ir.Jump 4);
          block "u2" [||] (Ir.Branch (Ir.Reg 1, 3, 2));
          block "v1" [||] (Ir.Jump 6);
          block "v2" [||] (Ir.Jump 5);
        |];
    }
  in
  { Ir.arrays = []; routines = [ main ]; main = "main" }

let edges_only_unreachable_cycle () =
  let p = unreachable_cycle_program () in
  (match Static_est.edge_freqs (Cfg_view.of_routine (Ir.routine p "main")) with
  | _ -> Alcotest.fail "the static estimate weighs an unreachable cycle"
  | exception Invalid_argument _ -> ());
  check_diff "unreachable cycle/edges-only" (edges_only Interp.default_config) p;
  ignore
    (every_budget "unreachable cycle/edges-only" (edges_only Interp.default_config) p)

(* Only an edges-only run marks chords, and there every variant carries
   exactly the chords of the plan's tree: the instrumented and plain
   streams and a tier-up re-lowering. *)
let chord_marks () =
  let p = (Spec.find "vpr").Spec.build ~scale:1 in
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
  in
  let lower config =
    let instr_tables =
      match instrumentation with
      | Some i -> Instr_rt.init_state ~policy:config.Interp.overflow_policy i
      | None -> Hashtbl.create 1
    in
    Lower.program ~config ~instr_tables p
  in
  let edges (v : Lower.variant) =
    Array.fold_left
      (fun acc op ->
        match op with
        | Lower.Jump { edge; _ } | Lower.Branch_const { edge; _ }
        | Lower.Return_r { edge; _ } | Lower.Return_i { edge; _ }
        | Lower.Return_none { edge } ->
            edge :: acc
        | Lower.Branch_r { then_edge; else_edge; _ } -> then_edge :: else_edge :: acc
        | _ -> acc)
      [] v.Lower.v_code
  in
  let marked (eo : Lower.edge_ops) = eo.Lower.work land Lower.work_chord <> 0 in
  List.iter
    (fun (label, config) ->
      Array.iter
        (fun (plan : Lower.plan) ->
          Alcotest.(check bool) (label ^ ": no tree") true (plan.Lower.chords = None);
          Array.iter
            (fun v ->
              Alcotest.(check bool) (label ^ ": no chord marks") false
                (List.exists marked (edges v)))
            plan.Lower.variants)
        (lower config).Lower.plans)
    [
      ("plain", { Interp.default_config with Interp.collect_edges = false; trace_paths = false });
      ("traced", { Interp.default_config with Interp.instrumentation });
    ];
  let prog = lower (edges_only { Interp.default_config with Interp.instrumentation }) in
  Array.iter
    (fun (plan : Lower.plan) ->
      let nblocks = Array.length plan.Lower.routine.Ir.blocks in
      if nblocks >= 3 then
        Lower.tier_up prog ~idx:plan.Lower.r_id
          ~order:(Array.init nblocks (fun i -> if i = 0 then 0 else nblocks - i))
          ~gen:1)
    prog.Lower.plans;
  Array.iter
    (fun (plan : Lower.plan) ->
      let tree = Option.get plan.Lower.chords in
      Alcotest.(check bool)
        (plan.Lower.routine.Ir.name ^ ": a tier-up generation") true
        (Array.length plan.Lower.routine.Ir.blocks < 3
        || Array.length plan.Lower.variants >= 2);
      Array.iter
        (fun v ->
          List.iter
            (fun (eo : Lower.edge_ops) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: edge %d marked iff a chord" plan.Lower.routine.Ir.name
                   eo.Lower.edge)
                (Spanning_tree.is_chord tree eo.Lower.edge)
                (marked eo))
            (edges v))
        plan.Lower.variants)
    prog.Lower.plans

let suite =
  List.map workload_case Spec.all
  @ [
      Alcotest.test_case "fuel sweep" `Quick fuel_sweep;
      Alcotest.test_case "overflow policy" `Quick overflow_policy;
      Alcotest.test_case "bare config" `Quick bare_config;
      Alcotest.test_case "metrics" `Quick metrics_diff;
      Alcotest.test_case "path-count overflow" `Quick too_many_paths;
      Alcotest.test_case "derived edges: recursion at every budget" `Quick
        derived_recursive;
      Alcotest.test_case "derived edges: cut routine at every budget" `Quick
        derived_cut;
      Alcotest.test_case "derived edges: tiered OSR at every budget" `Quick
        derived_tiered;
      QCheck_alcotest.to_alcotest qcheck_derived;
      QCheck_alcotest.to_alcotest qcheck_diff;
      Alcotest.test_case "untraced PPP run = traced PPP run" `Quick
        untraced_instrumented;
      Alcotest.test_case "edges-only: workloads x modes x budgets" `Quick
        edges_only_workloads;
      Alcotest.test_case "edges-only: fuel sweep" `Quick edges_only_fuel_sweep;
      Alcotest.test_case "edges-only: recursion at every budget" `Quick
        edges_only_recursive;
      Alcotest.test_case "edges-only: cut routine at every budget" `Quick
        edges_only_cut;
      Alcotest.test_case "edges-only: tiered OSR at every budget" `Quick
        edges_only_tiered;
      Alcotest.test_case "edges-only: unreachable cycle" `Quick
        edges_only_unreachable_cycle;
      Alcotest.test_case "edges-only: chord marks on every variant" `Quick chord_marks;
      QCheck_alcotest.to_alcotest qcheck_edges_only;
    ]
