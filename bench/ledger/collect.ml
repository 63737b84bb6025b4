(* The collect-exact and collect-sampled workloads: one round is
   [Shard.collect_workloads ~jobs:2] over the 18 programs, as
   [pppc collect bench:all -j 2] runs it. A sampled round also folds its
   merged dump into a fleet store decayed over the last rounds. *)

open Common
module Shard = Ppp_harness.Shard
module Path_profile = Ppp_profile.Path_profile
module Instrument = Ppp_core.Instrument
module Config = Ppp_core.Config
module Instr_rt = Ppp_interp.Instr_rt
module Sampling = Ppp_interp.Sampling
module Quality = Ppp_quality.Quality

type mode = Exact | Sampled

let name = function Exact -> "collect-exact" | Sampled -> "collect-sampled"

type state = {
  sizes : sizes;
  mode : mode;
  mutable fleet : Raw.t list;  (** merged dumps, newest first *)
  mutable warm_dump : string;  (** the warm-up round's merged dump *)
  mutable last_dump : string;  (** the latest round's merged dump *)
  mutable round_digests : Digest.t list;
}

let sampling st ~seed =
  match st.mode with
  | Exact -> None
  | Sampled -> Some (Sampling.spec ~denom:st.sizes.sample_denom ~seed ())

(* One sharded round. Returns the collection and its merged dump. *)
let sharded_round st ~seed =
  let c =
    Span.with_ "shard.collect" (fun () ->
        Shard.collect_workloads ~jobs:2 ~scale:st.sizes.scale
          ?sampling:(sampling st ~seed) Spec.all)
  in
  let dump = Span.with_ "io.to_string" (fun () -> Raw.to_string c.Shard.raw) in
  (match st.mode with
  | Exact -> ()
  | Sampled ->
      st.fleet <-
        List.filteri (fun i _ -> i < st.sizes.fleet_depth) (c.Shard.raw :: st.fleet);
      let decayed =
        Span.with_ "io.merge_decayed" (fun () ->
            Raw.merge_decayed ~decay:0.5 (List.rev st.fleet))
      in
      ignore (Span.with_ "io.to_string" (fun () -> Raw.to_string decayed)));
  (c, dump)

(* Decode a sampled run's tables into inverse-rate path estimates. *)
let decode ~denom (inst : Instrument.t) (o : Interp.outcome) p =
  let paths = Path_profile.create_program p in
  Option.iter
    (Hashtbl.iter (fun routine table ->
         match Hashtbl.find_opt inst.Instrument.plans routine with
         | None -> ()
         | Some plan ->
             let t = Path_profile.routine paths routine in
             Instr_rt.Table.iter_nonzero table (fun k c ->
                 match Instrument.decoded_path plan k with
                 | Some path -> Path_profile.add t path (Instr_rt.scaled_count ~denom c)
                 | None -> ())))
    o.Interp.instr_state;
  paths

(* One program's collection recomposed from public calls, the way a
   shard worker runs it: the VM outcomes it produced and its dump. *)
let collect_one st ~seed i (b : Spec.bench) =
  let p = Span.with_ "ir.build" (fun () -> b.Spec.build ~scale:st.sizes.scale) in
  match st.mode with
  | Exact ->
      let o = vm_run "vm.paths" p in
      let raw =
        Span.with_ "io.of_program" (fun () ->
            Raw.of_program ?edges:o.Interp.edge_profile
              ?paths:o.Interp.path_profile p)
      in
      ([ o ], Span.with_ "io.to_string" (fun () -> Raw.to_string raw))
  | Sampled ->
      let denom = st.sizes.sample_denom in
      let spec = Sampling.spec ~denom ~seed:(Shard.derive_seed seed i) () in
      let advice =
        vm_run "vm.edges"
          ~config:{ Interp.default_config with trace_paths = false }
          p
      in
      let inst =
        Span.with_ "place.instrument" (fun () ->
            Instrument.instrument p
              (Option.get advice.Interp.edge_profile)
              Config.ppp)
      in
      let o =
        vm_run "vm.sampled"
          ~config:
            {
              Interp.default_config with
              trace_paths = false;
              instrumentation = Some inst.Instrument.rt;
              sampling = Some spec;
            }
          p
      in
      let paths = Span.with_ "io.decode" (fun () -> decode ~denom inst o p) in
      let raw =
        Span.with_ "io.of_program" (fun () ->
            Raw.of_program ?edges:o.Interp.edge_profile ~paths p)
      in
      ([ advice; o ], Span.with_ "io.to_string" (fun () -> Raw.to_string raw))

(* Merge per-program dumps the way [Shard.collect_workloads] does. *)
let merge named_dumps =
  let raws =
    List.map
      (fun (name, dump) ->
        Span.with_ "io.parse" (fun () ->
            Raw.rename (fun r -> name ^ "/" ^ r) (Raw.parse dump)))
      named_dumps
  in
  let merged = Span.with_ "io.merge" (fun () -> Raw.merge raws) in
  Span.with_ "io.to_string" (fun () -> Raw.to_string merged)

(* A whole round recomposed in-process: per program [(name, outcomes,
   dump)], the merged dump, and the seconds spent collecting programs
   (what the two shard workers share). *)
let recompose st ~seed =
  let work = ref 0. in
  let per =
    List.mapi
      (fun i (b : Spec.bench) ->
        let (outcomes, dump), s = Clock.time (fun () -> collect_one st ~seed i b) in
        work := !work +. s;
        (b.Spec.bench_name, outcomes, dump))
      Spec.all
  in
  (per, merge (List.map (fun (n, _, d) -> (n, d)) per), !work)

let start mode sizes ~seed =
  let st =
    { sizes; mode; fleet = []; warm_dump = ""; last_dump = ""; round_digests = [] }
  in
  let _, dump = sharded_round st ~seed in
  (* Distinct copies, so the fleet store holds its steady-state memory
     from the first timed round on. *)
  if mode = Sampled then
    st.fleet <- List.init sizes.fleet_depth (fun _ -> Raw.parse dump);
  st.warm_dump <- dump;
  st.last_dump <- dump;
  st

let unit_of_work st ~seed i =
  Gc.compact ();
  let (c, dump), dur_s =
    Clock.time (fun () -> sharded_round st ~seed:(seed + i + 1))
  in
  st.last_dump <- dump;
  if st.mode = Exact then st.round_digests <- Digest.string dump :: st.round_digests;
  { dur_s; attempted = List.length Spec.all; failed = List.length c.Shard.lost }

let edges_dump p (o : Interp.outcome) =
  Raw.to_string (Raw.of_program ?edges:o.Interp.edge_profile p)

(* [Quality.overlap] of a sampled merged dump against the exact one. *)
let overlap_pct ~exact ~sampled =
  let q dump = Quality.of_dump ~metric:Ppp_harness.Pipeline.metric (Raw.parse dump) in
  Quality.overlap (q exact) (q sampled)

(* One program's share of the verify pass, run in a verify worker. *)
type program_verified = {
  program_checks : check list;
  recomposed : (string * int * int) option;
      (** sampled: the recomposed dump, instr_cost and base_cost *)
}

let verify_program st ~seed (i, (b : Spec.bench), e) =
  let name = b.Spec.bench_name in
  let p = b.Spec.build ~scale:st.sizes.scale in
  match st.mode with
  | Exact ->
      { program_checks = [ ("vm paths digest " ^ name, digest (Interp.run p) = e.outcome) ];
        recomposed = None }
  | Sampled ->
      let outcomes, dump = collect_one st ~seed i b in
      let sampled = List.nth outcomes 1 in
      { program_checks =
          List.map (fun o -> ("vm sampled-mode digest " ^ name, digest o = e.outcome)) outcomes
          @ [ ("sampled edges exact " ^ name, edges_dump p sampled = e.exact_edges) ];
        recomposed = Some (dump, sampled.Interp.instr_cost, sampled.Interp.base_cost) }

(* The programs' exact dumps, built from the reference engine's profiles,
   merged the way a round merges them. Exact: the VM's outcome in
   collect mode equals the reference engine's, and every round's merged
   dump equals the reference one. Sampled: the advice and sampled runs
   match the reference, the sampled dumps carry the reference's exact
   edge counts, and the warm-up round recomposed in-process equals the
   sharded one; the cost model's overhead comes from the same sampled
   runs, and the last round's overlap from the reference dump. *)
let verify st ~seed () =
  let expected = expected ~scale:st.sizes.scale in
  let per =
    par_map (verify_program st ~seed)
      (List.mapi (fun i (b, e) -> (i, b, e)) (List.combine Spec.all expected))
  in
  let checks = List.concat_map (fun v -> v.program_checks) per in
  let exact = merge (List.map (fun e -> (e.bench, e.exact_dump)) expected) in
  match st.mode with
  | Exact ->
      let same =
        List.for_all (( = ) (Digest.string exact))
          (Digest.string st.warm_dump :: st.round_digests)
      in
      { checks = checks @ [ ("rounds' merged dump = reference-engine dump", same) ]; info = [] }
  | Sampled ->
      let recomposed = List.map (fun v -> Option.get v.recomposed) per in
      let sum f = List.fold_left (fun a r -> a + f r) 0 recomposed in
      let dumps = List.map2 (fun e (d, _, _) -> (e.bench, d)) expected recomposed in
      {
        checks = checks @ [ ("recomposed warm-up round = sharded", merge dumps = st.warm_dump) ];
        info =
          [ ( "model_overhead_pct",
              100. *. float (sum (fun (_, c, _) -> c)) /. float (sum (fun (_, _, c) -> c)),
              "%" );
            ("overlap_pct", overlap_pct ~exact ~sampled:st.last_dump, "%") ];
      }

let handle mode sizes ~seed =
  let st = start mode sizes ~seed in
  {
    unit_of_work = unit_of_work st ~seed;
    peak_rss_kb = workload_peak_rss_kb;
    verify = verify st ~seed;
    stop = ignore;
  }

type traced = {
  dump : string;  (** merged dump of the traced sharded round *)
  busy_frac : float;  (** program-collection seconds over 2 workers' wall *)
  checks : check list;
}

(* The traced round: the sharded round as its own root span, then the
   same round recomposed in-process from public calls, whose merged dump
   must be byte-identical; then the pool's fork-and-pipe cost alone,
   mapping pre-built dumps of real size. *)
let traced mode sizes ~seed =
  let st =
    Span.with_ (name mode ^ ".setup") (fun () -> start mode sizes ~seed)
  in
  let (c, dump), sharded_s =
    Span.with_ (name mode ^ ".sharded") (fun () ->
        Clock.time (fun () -> sharded_round st ~seed))
  in
  let per, recomposed, work =
    Span.with_ (name mode ^ ".round") (fun () -> recompose st ~seed)
  in
  let dumps = List.map (fun (_, _, d) -> d) per in
  let mapped =
    Span.with_ "shard.map" (fun () ->
        Shard.map ~jobs:2 ~f:(fun ~seed:_ d -> d) dumps)
  in
  {
    dump;
    busy_frac = work /. (2. *. sharded_s);
    checks =
      [ (name mode ^ ": no shard lost", c.Shard.lost = []);
        (name mode ^ ": recomposed round = sharded round", recomposed = dump);
        ( name mode ^ ": shard.map returned every dump",
          List.map Result.to_option mapped = List.map Option.some dumps ) ];
  }
