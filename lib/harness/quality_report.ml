(* Assembly of the profile-quality report behind [pppc report]: each
   workload's row is the bench's [quality] section (every method's
   estimated profile against the measured truth), the optimizer decision
   log (and its generation-over-generation diffs) and optionally a live
   VM telemetry series; the rows are wrapped with a per-method summary of
   the same overlaps the section's floor gates. *)

module J = Ppp_obs.Jsonx
module Interp = Ppp_interp.Interp
module Telemetry = Ppp_interp.Telemetry
module Spec = Ppp_workloads.Spec
module Decision = Ppp_opt.Decision

let method_names = [ "edge"; "pp"; "tpp"; "ppp" ]

let decisions_json ds =
  J.Obj
    [
      ("count", J.Int (List.length ds));
      ("log", J.Arr (List.map Decision.to_json ds));
    ]

let generation_json (g : Pipeline.generation) =
  J.Obj
    [
      ("gen", J.Int g.Pipeline.gen);
      ("dirty", J.Arr (List.map (fun r -> J.Str r) g.Pipeline.dirty));
      ("matched_fraction", J.Float g.Pipeline.matched_fraction);
      ("instr_overhead", J.Float g.Pipeline.instr_overhead);
      ("decisions", J.Int (List.length g.Pipeline.decisions));
      ("diff", Decision.diff_json g.Pipeline.decision_diff);
    ]

let generations_json gens = J.Arr (List.map generation_json gens)

(* Run the optimized program once more with a snapshot ring attached and
   export the series. The run is thrown away apart from its telemetry —
   outcomes are byte-identical with the ring, which the test suite
   asserts differentially. *)
let telemetry_json ?(capacity = 256) ~interval prep =
  let ring = Telemetry.create ~capacity ~interval () in
  let (_ : Interp.outcome) =
    Interp.run
      ?cache:(Ppp_session.Session.lower_cache prep.Pipeline.session)
      ~config:{ Interp.default_config with telemetry = Some ring }
      prep.Pipeline.optimized
  in
  Telemetry.to_json ring

let bench_row ?(iterations = 1) ?telemetry_interval (pb : Report.prepared_bench)
    =
  let prep = pb.Report.prep in
  let name = pb.Report.spec.Spec.bench_name in
  let quality =
    match Report.quality.Report.json pb with J.Obj fields -> fields | _ -> []
  in
  let generations =
    if iterations <= 1 then []
    else
      [
        ( "generations",
          generations_json
            (Pipeline.reoptimize ~iterations ~name prep.Pipeline.original) );
      ]
  in
  let telemetry =
    match telemetry_interval with
    | None -> []
    | Some interval -> [ ("telemetry", telemetry_json ~interval prep) ]
  in
  J.Obj
    ([
       ("name", J.Str name);
       ( "kind",
         J.Str
           (match pb.Report.spec.Spec.kind with
           | Spec.Int -> "int"
           | Spec.Fp -> "fp") );
     ]
    @ quality
    @ [ ("decisions", decisions_json (Pipeline.decisions prep)) ]
    @ generations @ telemetry)

(* Per-method mean and worst-workload overlap over all rows: the
   numbers the [quality] section's floor gates. *)
let summary_json rows =
  let per_method m =
    match
      List.filter_map (fun r -> Report.num r [ "methods"; m; "overlap_pct" ]) rows
    with
    | [] -> (m, J.Obj [])
    | v :: _ as vs ->
        let mn = List.fold_left Float.min v vs in
        let mean = List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs) in
        ( m,
          J.Obj
            [
              ("mean_overlap", J.Float mean);
              ("min_overlap", J.Float mn);
              ("workloads", J.Int (List.length vs));
            ] )
  in
  J.Obj [ ("methods", J.Obj (List.map per_method method_names)) ]

let wrap ?(scale = 1) ?(hot_threshold = Pipeline.hot_threshold) rows =
  J.Obj
    [
      ("schema", J.Str "ppp-quality/2");
      ("scale", J.Int scale);
      ("hot_threshold", J.Float hot_threshold);
      ("benchmarks", J.Arr rows);
      ("summary", summary_json rows);
    ]
