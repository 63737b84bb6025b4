(* The bench gate driven by Report.sections: every section's relative
   bounds, under the metric names CI logs, and every absolute floor at
   its committed constant. *)

module J = Ppp_obs.Jsonx
module Gate = Ppp_harness.Gate
module R = Ppp_harness.Report

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Every relative bound: its gate metric name, the field it reads in a
   benchmark row, and its direction. A path step under "rates" selects
   the sampling point with that denominator. *)
let bounds_table =
  let sampling =
    List.concat_map
      (fun d ->
        let at key dir =
          ( Printf.sprintf "sampling.1/%d.%s" d key,
            [ "sampling"; "rates"; string_of_int d; key ],
            dir )
        in
        [
          at "overhead" R.Ceiling;
          at "overlap_vs_full" R.Floor;
          at "overlap_vs_truth" R.Floor;
        ])
      [ 1; 4; 16; 64; 256 ]
  in
  [
    ("pp.overhead", [ "methods"; "pp"; "overhead" ], R.Ceiling);
    ("tpp.overhead", [ "methods"; "tpp"; "overhead" ], R.Ceiling);
    ("ppp.overhead", [ "methods"; "ppp"; "overhead" ], R.Ceiling);
    ( "layout.methods.ppp.improvement",
      [ "layout"; "methods"; "ppp"; "improvement" ],
      R.Floor );
    ( "layout.closed_loop.improvement",
      [ "layout"; "closed_loop"; "improvement" ],
      R.Floor );
  ]
  @ sampling
  @ [
      ("tiered.instr_saving", [ "tiered"; "instr_saving" ], R.Floor);
      ("tiered.layout.improvement", [ "tiered"; "layout"; "improvement" ], R.Floor);
      ("drift.drift_stability", [ "drift"; "drift_stability" ], R.Floor);
      ("throughput.ratio", [ "throughput"; "ratio" ], R.Floor);
      ("throughput.paths_ratio", [ "throughput"; "paths_ratio" ], R.Floor);
    ]

let rec value_at path (j : J.t) =
  match (path, j) with
  | [], J.Float f -> Some f
  | [], J.Int i -> Some (float_of_int i)
  | k :: rest, J.Obj _ -> Option.bind (J.member j k) (value_at rest)
  | k :: rest, J.Arr xs ->
      Option.bind
        (List.find_opt
           (fun x -> J.member x "denom" = Some (J.Int (int_of_string k)))
           xs)
        (value_at rest)
  | _ -> None

(* Rewrite the field at [path] with [f]; [None] drops it. *)
let rec edit path f (j : J.t) =
  match (path, j) with
  | [ k ], J.Obj kvs ->
      J.Obj
        (List.filter_map
           (fun (k', v) -> if k' = k then Option.map (fun v -> (k', v)) (f v) else Some (k', v))
           kvs)
  | k :: rest, J.Obj kvs ->
      J.Obj (List.map (fun (k', v) -> (k', if k' = k then edit rest f v else v)) kvs)
  | k :: rest, J.Arr xs ->
      J.Arr
        (List.map
           (fun x ->
             if J.member x "denom" = Some (J.Int (int_of_string k)) then edit rest f x
             else x)
           xs)
  | _ -> j

(* One committed benchmark row, carrying every section. *)
let template () =
  let doc =
    J.of_string (In_channel.with_open_bin Fixtures.baseline_path In_channel.input_all)
  in
  match J.to_list (Option.get (J.member doc "benchmarks")) with
  | (J.Obj _ as row) :: _ -> row
  | _ -> Alcotest.fail "baseline has no benchmark rows"

let doc rows = J.Obj [ ("schema", J.Str "ppp-bench/1"); ("benchmarks", J.Arr rows) ]

let test_table_covers_sections () =
  let declared =
    List.concat_map
      (fun (s : R.section) -> List.map (fun (m, _, dir) -> (m, dir)) s.R.bounds)
      R.sections
  in
  let tabled = List.map (fun (m, _, dir) -> (m, dir)) bounds_table in
  check_bool "the table lists every section bound, with its direction" true
    (List.sort compare declared = List.sort compare tabled)

let test_every_bound () =
  let pct = 10.0 in
  let row = template () in
  let base = doc [ row ] in
  let name =
    match J.member row "name" with Some (J.Str n) -> n | _ -> assert false
  in
  List.iter
    (fun (metric, path, dir) ->
      let v =
        match value_at path row with
        | Some v -> v
        | None -> Alcotest.failf "%s: no value at its path" metric
      in
      let delta = 2.0 *. Float.max 1e-6 (pct /. 100. *. Float.abs v) in
      let worse = if dir = R.Ceiling then v +. delta else v -. delta in
      let better = if dir = R.Ceiling then v -. delta else v +. delta in
      let run ?strict x =
        Gate.run ?strict ~baseline:base
          ~current:(doc [ edit path (fun _ -> Option.map (fun f -> J.Float f) x) row ])
          ~pct ()
      in
      (match (run (Some worse)).Gate.failures with
      | [ f ] ->
          Alcotest.(check string) (metric ^ ": the regression's name") metric f.Gate.metric;
          Alcotest.(check string) (metric ^ ": its benchmark") name f.Gate.bench
      | fs -> Alcotest.failf "%s: %d failures moving past pct" metric (List.length fs));
      let r = run (Some better) in
      check_int (metric ^ ": improving passes") 0
        (List.length r.Gate.failures + List.length r.Gate.warnings);
      let lax = run None in
      check_int (metric ^ ": dropped, lax: no failure") 0 (List.length lax.Gate.failures);
      check_bool (metric ^ ": dropped, lax: warns") true
        (List.map (fun (w : Gate.warning) -> w.Gate.metric) lax.Gate.warnings = [ metric ]);
      match (run ~strict:true None).Gate.failures with
      | [ f ] ->
          check_bool (metric ^ ": dropped, strict: fails") true
            (f.Gate.metric = metric && Float.is_nan f.Gate.current)
      | fs -> Alcotest.failf "%s: %d strict failures when dropped" metric (List.length fs))
    bounds_table

(* {2 Absolute floors at their constants} *)

let floor_of name rows =
  match
    List.assoc_opt name
      (Gate.floors ~sections:R.sections
         (doc
            (List.mapi
               (fun i j -> J.Obj [ ("name", J.Str (Printf.sprintf "b%d" i)); (name, j) ])
               rows)))
  with
  | Some v -> Result.is_ok v
  | None -> Alcotest.failf "section %s has no floor" name

(* [wins] of [n] rows pass [row true], the rest [row false]. *)
let split ~wins n row = List.init n (fun i -> row (i < wins))

let test_layout_floor () =
  let row ?(ppp_imp = 1.0) win =
    J.Obj
      [
        ("base", J.Obj [ ("taken", J.Int 10) ]);
        ( "methods",
          J.Obj
            [
              ("edge", J.Obj [ ("improvement", J.Float 0.5) ]);
              ( "ppp",
                J.Obj
                  [
                    ("taken", J.Int (if win then 9 else 10));
                    ("improvement", J.Float ppp_imp);
                  ] );
            ] );
      ]
  in
  check_bool "14 taken-transfer drops pass" true (floor_of "layout" (split ~wins:14 18 row));
  check_bool "13 fail" false (floor_of "layout" (split ~wins:13 18 row));
  check_bool "PPP's aggregate below edge's fails" false
    (floor_of "layout" (split ~wins:18 18 (row ~ppp_imp:0.4)))

let test_sampling_floor () =
  let row ~overlap ~overhead =
    J.Obj
      [
        ( "rates",
          J.Arr
            [
              J.Obj
                [
                  ("denom", J.Int 1);
                  ("overlap_vs_full", J.Float 100.);
                  ("overhead", J.Float 0.05);
                ];
              J.Obj
                [
                  ("denom", J.Int 4);
                  ("overlap_vs_full", J.Float overlap);
                  ("overhead", J.Float overhead);
                ];
            ] );
      ]
  in
  let floor ~overlap ~overhead = floor_of "sampling" [ row ~overlap ~overhead; row ~overlap ~overhead ] in
  check_bool "90% overlap at 1.5% overhead passes" true (floor ~overlap:90.0 ~overhead:0.015);
  check_bool "89.9% overlap fails" false (floor ~overlap:89.9 ~overhead:0.015);
  check_bool "1.51% overhead fails" false (floor ~overlap:95.0 ~overhead:0.0151);
  check_bool "the unsampled rate never qualifies" false
    (floor_of "sampling"
       [
         J.Obj
           [
             ( "rates",
               J.Arr
                 [
                   J.Obj
                     [
                       ("denom", J.Int 1);
                       ("overlap_vs_full", J.Float 100.);
                       ("overhead", J.Float 0.0);
                     ];
                 ] );
           ];
       ])

let test_tiered_floor () =
  let row win =
    J.Obj
      [
        ("tiered_instr_cost", J.Int (if win then 5 else 10));
        ("untiered_instr_cost", J.Int 10);
      ]
  in
  check_bool "9 wins pass" true (floor_of "tiered" (split ~wins:9 18 row));
  check_bool "8 fail" false (floor_of "tiered" (split ~wins:8 18 row))

let test_drift_floor () =
  let row s = J.Obj [ ("drift_stability", J.Float s); ("full_stability", J.Float 0.5) ] in
  check_bool "40% average stability passes" true (floor_of "drift" [ row 0.3; row 0.5 ]);
  check_bool "39.9% fails" false (floor_of "drift" [ row 0.3; row 0.498 ])

let test_throughput_floor () =
  let row ?(paths = 4.0) r =
    J.Obj [ ("ratio", J.Float r); ("paths_ratio", J.Float paths) ]
  in
  check_bool "1.5x everywhere passes" true
    (floor_of "throughput" [ row ~paths:1.5 1.5; row 4.0 ]);
  check_bool "one benchmark at 1.49x fails" false
    (floor_of "throughput" [ row 1.49; row 4.0 ]);
  check_bool "one benchmark at 1.49x with profiling on fails" false
    (floor_of "throughput" [ row ~paths:1.49 4.0; row 4.0 ])

let test_floor_needs_its_section () =
  check_bool "a floor over a document without its section fails" true
    (List.for_all
       (fun (_, v) -> Result.is_error v)
       (Gate.floors ~sections:R.sections (doc [ J.Obj [ ("name", J.Str "x") ] ])))

let suite =
  [
    Alcotest.test_case "bounds table covers every section" `Quick
      test_table_covers_sections;
    Alcotest.test_case "every relative bound" `Quick test_every_bound;
    Alcotest.test_case "layout floor at 14 wins" `Quick test_layout_floor;
    Alcotest.test_case "sampling floor at 90% / 1.5%" `Quick test_sampling_floor;
    Alcotest.test_case "tiered floor at 9 wins" `Quick test_tiered_floor;
    Alcotest.test_case "drift floor at 40%" `Quick test_drift_floor;
    Alcotest.test_case "throughput floor at 1.5x" `Quick test_throughput_floor;
    Alcotest.test_case "floor without its section" `Quick
      test_floor_needs_its_section;
  ]
