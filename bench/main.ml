(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 8) on the synthetic SPEC2000 workloads,
   and records one JSON row per benchmark holding one object per
   section (Ppp_harness.Report.sections).

   Usage: main.exe [FLAG ...] [ACTION | SECTION ...]

   With neither, prints every table and figure.

   Actions print the paper's tables: table1, table2, fig9 | fig10 |
   fig11, fig12, fig13, sec8.1, tables (all of them).

   Sections: methods and layout are always recorded; naming one of the
   others adds it to the JSON, and outside -j/--smoke prints its table.
     methods     overhead / accuracy / coverage of each profiler
     layout      taken-transfer / locality proxy of each method's layout
                 and of the closed superblock+layout loop
     sampling    PPP under bursty sampled collection at rates 1, 1/4,
                 1/16, 1/64 and 1/256
     tiered      one run with the tier controller armed: swaps, retired
                 instrumentation cost, installed-layout proxy scores
     drift       re-optimization loop decision stability, pristine
                 profiles vs a sampled store merged with decay
     throughput  VM and reference-engine Minstr/s, profiling off and
                 with edges + path tracing on             (wall clock)
     prepare     preparation time per phase             (wall clock)

   Flags:
     --scale N          larger inputs (default 1)
     --bench a,b,c      restrict to some benchmarks
     --json FILE        machine-readable results (default
                        BENCH_results.json)
     --no-json          write no JSON
     -j N | --shards N  evaluate benchmarks across N worker processes
                        (machine-readable only; the JSON is
                        byte-identical at every -j, so naming a
                        wall-clock section is an error)
     --seed N           PRNG seed recorded in the JSON and fed to shard
                        workers (default 0)
     --smoke            machine-readable only, without forking
     --no-cache         disable the per-benchmark analysis session
                        (results are byte-identical; only the work and
                        wall time differ)
     --baseline F       gate against a previous BENCH_*.json: exit 1 if
                        any section's bound regressed by more than the
                        --gate percentage (default 10), or any recorded
                        section's absolute floor fails
     --gate P
     --strict           a metric the baseline has but this run lacks
                        fails instead of warning

   The absolute floors:
     layout      PPP's estimated layout strictly drops taken transfers
                 on at least 14 benchmarks, and PPP's aggregate layout
                 improvement is at least edge profiling's
     sampling    some sampled rate (1/4 to 1/256) averages at least 90%
                 overlap with the unsampled estimate at no more than
                 1.5% overhead
     tiered      the tiered run retires instrumentation cost on at least
                 9 benchmarks
     drift       the drift loop's generation-2 decision stability
                 averages at least 40%
     throughput  every benchmark's VM runs at least 1.5x as fast as the
                 reference engine, profiling off and on

   Unknown benchmarks, actions and sections exit 2. *)

module R = Ppp_harness.Report
module J = Ppp_obs.Jsonx
module Shard = Ppp_harness.Shard
module Gate = Ppp_harness.Gate
module Spec = Ppp_workloads.Spec

let fmt = Format.std_formatter

let usage_error f =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "bench: %s@." msg;
      exit 2)
    f

let actions =
  [
    ("table1", [ R.table1 ]);
    ("table2", [ R.table2 ]);
    ("fig9", [ R.fig9_10_11 ]);
    ("fig10", [ R.fig9_10_11 ]);
    ("fig11", [ R.fig9_10_11 ]);
    ("fig12", [ R.fig12 ]);
    ("fig13", [ R.fig13 ]);
    ("sec8.1", [ R.section8_1 ]);
    ("tables", [ R.table1; R.table2; R.fig9_10_11; R.fig12; R.fig13; R.section8_1 ]);
  ]

(* {2 Sharded evaluation}

   Each worker prepares and evaluates one benchmark and sends its JSON
   row back as a string; the deterministic sections are pure in the
   benchmark, so rows are identical whichever worker computes them and
   the assembled document is byte-identical at every -j. *)

let sharded_rows ~jobs ~seed ~scale ~cache ~sections names =
  let row ~seed:_ name =
    match R.prepare_all ~scale ~names:[ name ] ~cache () with
    | [ pb ] -> J.to_string (R.bench_json_one ~sections pb)
    | _ -> assert false
  in
  List.partition_map
    (function Ok row -> Left (J.of_string row) | Error d -> Right d)
    (Shard.map ~jobs ~seed ~f:row names)

(* {2 The gate}

   Exit 1 on a regression beyond [pct] or a failed floor, so CI can gate
   on it. A metric the baseline has but the current run lacks is a
   warning — or, under --strict, a failure like any regression. *)

let run_gate ~baseline_path ~strict ~pct ~sections doc =
  let baseline =
    J.of_string (In_channel.with_open_bin baseline_path In_channel.input_all)
  in
  let r = Gate.run ~strict ~baseline ~current:doc ~pct () in
  List.iter
    (fun w -> Format.eprintf "gate: warning: %a@." Gate.pp_warning w)
    r.Gate.warnings;
  (match r.Gate.failures with
  | [] ->
      Format.eprintf "gate: no regressions beyond %g%% against %s@." pct
        baseline_path
  | fails ->
      Format.eprintf "gate: %d regression(s) beyond %g%% against %s@.%a"
        (List.length fails) pct baseline_path Gate.pp_failures fails);
  let floors = Gate.floors ~sections doc in
  List.iter
    (function
      | name, Ok msg -> Format.eprintf "gate: %s floor met: %s@." name msg
      | name, Error msg -> Format.eprintf "gate: %s floor failed: %s@." name msg)
    floors;
  if r.Gate.failures <> [] || List.exists (fun (_, v) -> Result.is_error v) floors
  then exit 1

(* {2 Argument handling} *)

let () =
  let scale = ref 1 in
  let names = ref None in
  let json_path = ref (Some "BENCH_results.json") in
  let jobs = ref 1 in
  let seed = ref 0 in
  let smoke = ref false in
  let no_cache = ref false in
  let baseline = ref None in
  let gate_pct = ref 10.0 in
  let strict = ref false in
  let named = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: n :: rest ->
        scale := int_of_string n;
        parse rest
    | "--bench" :: bs :: rest ->
        names := Some (String.split_on_char ',' bs);
        parse rest
    | "--json" :: f :: rest ->
        json_path := Some f;
        parse rest
    | "--no-json" :: rest ->
        json_path := None;
        parse rest
    | ("-j" | "--shards") :: n :: rest ->
        jobs := int_of_string n;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--no-cache" :: rest ->
        no_cache := true;
        parse rest
    | "--baseline" :: f :: rest ->
        baseline := Some f;
        parse rest
    | "--gate" :: p :: rest ->
        gate_pct := float_of_string p;
        parse rest
    | "--strict" :: rest ->
        strict := true;
        parse rest
    | a :: rest ->
        named := a :: !named;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  Option.iter
    (List.iter (fun n ->
         if Spec.find_opt n = None then
           usage_error "unknown benchmark %S (known: %s)" n
             (String.concat ", " (Spec.names ()))))
    !names;
  List.iter
    (fun a ->
      if not (List.mem_assoc a actions || Option.is_some (R.find_section a))
      then usage_error "unknown action or section %S" a)
    !named;
  let machine = !jobs > 1 || !smoke in
  let named =
    if !named = [] && not machine then [ "tables" ] else List.rev !named
  in
  let sections = R.select named in
  if !jobs > 1 then
    List.iter
      (fun (s : R.section) ->
        if s.wall_clock then
          usage_error
            "section %s measures wall clock and cannot run under -j (the \
             sharded document must be byte-identical at every -j)"
            s.name)
      sections;
  (match List.filter (fun a -> List.mem_assoc a actions) named with
  | ignored when machine && ignored <> [] ->
      Format.eprintf "note: actions %s are ignored under -j/--smoke@."
        (String.concat ", " ignored)
  | _ -> ());
  let cache = not !no_cache in
  let rows, lost =
    if !jobs > 1 then
      sharded_rows ~jobs:!jobs ~seed:!seed ~scale:!scale ~cache ~sections
        (Option.value !names ~default:(Spec.names ()))
    else begin
      let benches = R.prepare_all ~scale:!scale ?names:!names ~cache () in
      if not machine then
        List.iter
          (fun a ->
            match (List.assoc_opt a actions, R.find_section a) with
            | Some prints, _ -> List.iter (fun print -> print fmt benches) prints
            | None, Some s -> s.R.render fmt benches
            | None, None -> ())
          named;
      (List.map (R.bench_json_one ~sections) benches, [])
    end
  in
  List.iter (fun d -> Format.eprintf "%a@." Ppp_resilience.Diagnostic.pp d) lost;
  (* Canonical (objects key-sorted), so BENCH_*.json is byte-stable for a
     given tree: same rows at every -j, no field-order drift. *)
  let doc = J.canonical (R.bench_json_wrap ~scale:!scale ~seed:!seed rows) in
  Option.iter
    (fun path ->
      Ppp_obs.Sink.write_json ~path doc;
      Format.eprintf "wrote %s@." path)
    !json_path;
  Option.iter
    (fun b ->
      run_gate ~baseline_path:b ~strict:!strict ~pct:!gate_pct ~sections doc)
    !baseline;
  if lost <> [] then exit 2
