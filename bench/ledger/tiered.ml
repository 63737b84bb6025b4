(* The tiered workload: the deployed dynamic-optimizer run. Each program
   is instrumented for PPP from its self-advice edge profile and run once
   with the tier controller armed and no ground-truth oracle, so hot
   routines swap to hot-path-first re-lowerings mid-run. *)

open Common
module Pipeline = Ppp_harness.Pipeline
module Instrument = Ppp_core.Instrument
module Config = Ppp_core.Config
module Tier = Ppp_interp.Tier
module Lower = Ppp_interp.Lower
module Instr_rt = Ppp_interp.Instr_rt

type prog = {
  name : string;
  p : Ppp_ir.Ir.program;
  prep : Pipeline.prepared;
  advice : Ppp_profile.Edge_profile.program;
}

type state = {
  progs : prog list;
  mutable rounds : (string * (digest, string) result) list list;
      (** outcome digests of every round, newest first *)
  mutable model_pct : float;
      (** the cost model's overhead over the warm-up round: instrumentation
          cost over base cost, summed over the programs *)
}

let instrument pr =
  let inst =
    Span.with_ "place.instrument" (fun () ->
        Instrument.instrument pr.p pr.advice Config.ppp)
  in
  Span.count "place.static_actions" (Instrument.static_instr_count inst);
  inst

let run_one pr =
  let inst = instrument pr in
  let plan = Pipeline.tier_planner pr.prep inst in
  let plan ~routine ~counters =
    Span.with_ "tier.plan" (fun () -> plan ~routine ~counters)
  in
  let config =
    {
      plain with
      instrumentation = Some inst.Instrument.rt;
      tier = Some (Tier.spec ~plan ());
    }
  in
  let o = vm_run "vm.tiered" ~config pr.p in
  Span.count "tier.swaps" (List.length o.Interp.tier_decisions);
  o

let round st =
  List.map
    (fun pr ->
      ( pr.name,
        match run_one pr with
        | o -> Ok o
        | exception Interp.Runtime_error msg -> Error msg ))
    st.progs

let digests r = List.map (fun (name, o) -> (name, Result.map digest o)) r

let start sizes =
  let progs =
    List.map
      (fun (b : Spec.bench) ->
        let p = b.Spec.build ~scale:sizes.scale in
        let prep = Pipeline.prepare_unoptimized ~name:b.Spec.bench_name p in
        {
          name = b.Spec.bench_name;
          p;
          prep;
          advice = Option.get prep.Pipeline.orig_outcome.Interp.edge_profile;
        })
      Spec.all
  in
  let st = { progs; rounds = []; model_pct = 0. } in
  let r = round st in
  let sum f = List.fold_left (fun a (_, o) -> a + Result.fold ~ok:f ~error:(fun _ -> 0) o) 0 r in
  st.model_pct <-
    100. *. float (sum (fun o -> o.Interp.instr_cost)) /. float (sum (fun o -> o.Interp.base_cost));
  st.rounds <- [ digests r ];
  st

let unit_of_work st _ =
  Gc.compact ();
  let r, dur_s = Clock.time (fun () -> round st) in
  st.rounds <- digests r :: st.rounds;
  {
    dur_s;
    attempted = List.length r;
    failed = List.length (List.filter (fun (_, o) -> Result.is_error o) r);
  }

(* Every tiered run, warm-up included, has the reference engine's
   outcome digest. *)
let verify sizes st () =
  let expected = expected ~scale:sizes.scale in
  {
    checks =
      List.concat_map
        (fun r ->
          List.map2
            (fun e (_, o) -> ("tiered digest " ^ e.bench, o = Ok e.outcome))
            expected r)
        st.rounds;
    info = [ ("model_overhead_pct", st.model_pct, "%") ];
  }

let handle sizes =
  let st = start sizes in
  {
    unit_of_work = unit_of_work st;
    peak_rss_kb = workload_peak_rss_kb;
    verify = verify sizes st;
    stop = ignore;
  }

(* The traced round, then the VM layers no workload runs on its own:
   the plain VM (every mode's base), untiered PPP instrumentation (what
   tier-up retires), and lowering alone. *)
let traced sizes =
  let st = Span.with_ "tiered.setup" (fun () -> start sizes) in
  let r = Span.with_ "tiered.round" (fun () -> round st) in
  Span.with_ "vm.layers" (fun () ->
      List.iter
        (fun pr ->
          ignore (vm_run "vm.plain" ~config:plain pr.p);
          let inst = Instrument.instrument pr.p pr.advice Config.ppp in
          ignore
            (vm_run "vm.ppp"
               ~config:{ plain with instrumentation = Some inst.Instrument.rt }
               pr.p);
          ignore
            (Span.with_ "lower.program" (fun () ->
                 Lower.program ~config:plain
                   ~instr_tables:(Instr_rt.init_state (Instr_rt.no_instrumentation ()))
                   pr.p)))
        st.progs);
  List.map (fun (name, o) -> ("tiered: ran " ^ name, Result.is_ok o)) r
