(* The parallel ≡ sequential contract: sharded collection produces the
   same bytes, counts, hot-path sets and merged metrics at every -j,
   crashes degrade to located diagnostics, and the perf gate tells a
   changed benchmark document from an unchanged one. *)

module Shard = Ppp_harness.Shard
module Gate = Ppp_harness.Gate
module R = Ppp_harness.Report
module Interp = Ppp_interp.Interp
module Profile_io = Ppp_profile.Profile_io
module Raw = Ppp_profile.Profile_io.Raw
module Metrics = Ppp_obs.Metrics
module Diagnostic = Ppp_resilience.Diagnostic
module Spec = Ppp_workloads.Spec
module J = Ppp_obs.Jsonx

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains msg needle =
  let n = String.length needle in
  let rec find j =
    j + n <= String.length msg && (String.sub msg j n = needle || find (j + 1))
  in
  find 0

(* {2 Differential collection: -j 1 ≡ -j 2 ≡ -j 8 ≡ fork-free} *)

(* What collect_workloads does, without any forking: the trusted
   reference the pool is measured against. *)
let sequential_reference () =
  Raw.merge
    (List.map
       (fun (b : Spec.bench) ->
         let p = b.Spec.build ~scale:1 in
         let o = Interp.run p in
         Raw.rename
           (fun r -> b.Spec.bench_name ^ "/" ^ r)
           (Raw.of_program ?edges:o.Interp.edge_profile
              ?paths:o.Interp.path_profile p))
       Spec.all)

(* The per-routine set of hot path lines (count >= threshold) extracted
   from a canonical dump's paths section. *)
let hot_path_set ~threshold dump =
  let hot = ref [] in
  let routine = ref "" in
  let in_paths = ref false in
  String.split_on_char '\n' dump
  |> List.iter (fun line ->
         if String.length line >= 13 && String.sub line 0 13 = "section paths"
         then in_paths := true
         else if String.length line >= 8 && String.sub line 0 8 = "section " then
           in_paths := false
         else if !in_paths then
           if String.length line >= 8 && String.sub line 0 8 = "routine " then
             routine := String.sub line 8 (String.length line - 8)
           else
             match String.index_opt line ':' with
             | Some _ -> (
                 match int_of_string_opt (List.hd (String.split_on_char ' ' line)) with
                 | Some count when count >= threshold ->
                     hot := (!routine, line) :: !hot
                 | _ -> ())
             | None -> ());
  List.sort_uniq compare !hot

let test_collect_differential () =
  let collect jobs = Shard.collect_workloads ~jobs ~metrics:true Spec.all in
  let c1 = collect 1 and c2 = collect 2 and c8 = collect 8 in
  List.iter
    (fun (j, c) ->
      check_int (Printf.sprintf "-j %d loses no shard" j) 0
        (List.length c.Shard.lost))
    [ (1, c1); (2, c2); (8, c8) ];
  let d1 = Raw.to_string c1.Shard.raw in
  let d2 = Raw.to_string c2.Shard.raw in
  let d8 = Raw.to_string c8.Shard.raw in
  check_string "-j 1 and -j 2 merged dumps are byte-identical" d1 d2;
  check_string "-j 1 and -j 8 merged dumps are byte-identical" d1 d8;
  check_string "fork-free reference matches the pool" d1
    (Raw.to_string (sequential_reference ()));
  (* Per-shard dumps, in workload order, render identically too. *)
  let texts c =
    List.map (fun (name, raw) -> (name, Raw.to_string raw)) c.Shard.shards
  in
  check_bool "per-shard dumps identical across -j" true
    (texts c1 = texts c2 && texts c1 = texts c8);
  check_int "one shard per workload" (List.length Spec.all)
    (List.length c1.Shard.shards);
  (* Merged rt.* / interp.* metrics aggregate to the same snapshot. *)
  check_bool "merged metrics identical across -j" true
    (c1.Shard.metrics = c2.Shard.metrics && c1.Shard.metrics = c8.Shard.metrics);
  check_bool "merged metrics are non-trivial" true
    (match Metrics.counter_value c1.Shard.metrics "interp.dyn_instrs" with
    | Some n -> n > 0
    | None -> false);
  (* Hot-path sets (paths with count >= 50) agree across -j levels. *)
  let h1 = hot_path_set ~threshold:50 d1 in
  check_bool "hot-path sets identical across -j" true
    (h1 = hot_path_set ~threshold:50 d2 && h1 = hot_path_set ~threshold:50 d8);
  check_bool "hot-path set is non-empty" true (h1 <> []);
  (* No salvage happened: every shard agreed on its (prefixed) CFGs. *)
  check_int "no merge diagnostics" 0
    (List.length (Raw.diagnostics c1.Shard.raw))

(* {2 The pool itself} *)

let test_map_order_and_results () =
  let items = [ 10; 20; 30; 40; 50; 60; 70 ] in
  let results = Shard.map ~jobs:3 ~f:(fun ~seed:_ x -> x + 1) items in
  check_bool "results in item order" true
    (results = List.map (fun x -> Ok (x + 1)) items)

let test_seed_derivation_j_invariant () =
  let items = [ 0; 1; 2; 3; 4; 5 ] in
  let seeds jobs =
    Shard.map ~jobs ~seed:99 ~f:(fun ~seed _ -> seed) items
    |> List.map (function Ok s -> s | Error _ -> -1)
  in
  let s1 = seeds 1 in
  check_bool "per-item seeds identical at -j 1 / -j 3 / -j 6" true
    (s1 = seeds 3 && s1 = seeds 6);
  check_bool "seeds match derive_seed directly" true
    (s1 = List.map (Shard.derive_seed 99) items);
  check_bool "seeds are distinct per item" true
    (List.length (List.sort_uniq compare s1) = List.length items)

let test_worker_crash () =
  (* Whichever worker takes item 3 dies hard on it: only the item it
     holds is lost, as a located Shard_lost diagnostic, and the items
     never handed out (4 and 5) go to the surviving worker. *)
  let results =
    Shard.map ~jobs:2
      ~f:(fun ~seed:_ i -> if i = 3 then Unix._exit 7 else i * 2)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  List.iteri
    (fun i r ->
      match r with
      | Ok v ->
          check_bool (Printf.sprintf "item %d survives" i) true (i <> 3);
          check_int (Printf.sprintf "item %d value" i) (i * 2) v
      | Error d ->
          check_bool (Printf.sprintf "item %d is a loss" i) true (i = 3);
          check_bool "kind is shard-lost" true
            (d.Diagnostic.kind = Diagnostic.Shard_lost);
          check_bool "diagnostic locates the item" true
            (d.Diagnostic.line = Some i);
          check_bool "diagnostic names the exit code" true
            (contains d.Diagnostic.message "exited with code 7"))
    results

let test_worker_exception () =
  (* An exception in [f] costs only that item; the worker keeps going. *)
  let results =
    Shard.map ~jobs:2
      ~f:(fun ~seed:_ i -> if i = 1 then failwith "boom" else i)
      [ 0; 1; 2; 3 ]
  in
  match results with
  | [ Ok 0; Error d; Ok 2; Ok 3 ] ->
      check_bool "kind is shard-lost" true
        (d.Diagnostic.kind = Diagnostic.Shard_lost)
  | _ -> Alcotest.fail "expected exactly item 1 to fail"

(* Worker 1's first result outgrows a pipe; its next item makes the
   marker worker 0 waits for. If the parent read worker 0 to the end
   before worker 1, worker 1 would block in [write] and never make the
   marker. *)
let test_map_drains_workers_together () =
  let marker =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppp-shard-marker-%d" (Unix.getpid ()))
  in
  (try Sys.remove marker with Sys_error _ -> ());
  let big = String.make 1_000_000 'x' in
  let f ~seed:_ i =
    match i with
    | 0 ->
        let give_up = Unix.gettimeofday () +. 5. in
        while (not (Sys.file_exists marker)) && Unix.gettimeofday () < give_up do
          Unix.sleepf 0.005
        done;
        if Sys.file_exists marker then "saw" else "missed"
    | 1 -> big
    | 3 ->
        close_out (open_out marker);
        ""
    | _ -> ""
  in
  let results = Shard.map ~jobs:2 ~f [ 0; 1; 2; 3 ] in
  (try Sys.remove marker with Sys_error _ -> ());
  check_bool "worker 0 saw the marker" true (List.hd results = Ok "saw");
  check_bool "every result delivered" true
    (results = [ Ok "saw"; Ok big; Ok ""; Ok "" ])

(* A worker that stalls past the budget loses only the item it holds:
   the other worker takes every later item, and every other item
   arrives. *)
let test_map_timeout_keeps_delivered () =
  List.iter
    (fun stall ->
      let results =
        Shard.map ~jobs:2 ~timeout_s:0.5
          ~f:(fun ~seed:_ i ->
            if i = stall then Unix.sleepf 30.;
            i)
          [ 0; 1; 2; 3; 4; 5 ]
      in
      List.iteri
        (fun i r ->
          let lost = i = stall in
          match r with
          | Ok v ->
              check_bool (Printf.sprintf "stall %d: item %d delivered" stall i)
                false lost;
              check_int "value" i v
          | Error d ->
              check_bool (Printf.sprintf "stall %d: item %d lost" stall i)
                true lost;
              check_bool "diagnostic locates the item" true
                (d.Diagnostic.line = Some i);
              check_bool "diagnostic names the budget" true
                (contains d.Diagnostic.message
                   "exceeded its 0.5s wall-clock budget"))
        results)
    [ 2; 3 ]

(* Every worker dies: item 0 arrives, and each other item comes back as
   a located Shard_lost; nothing raises. The worker that ran item 0 then
   takes item 2, so items 1 and 2 are lost by the workers that held them
   and items 3-5, never handed out, name no worker. *)
let test_map_every_worker_dies () =
  let results =
    Shard.map ~jobs:2
      ~f:(fun ~seed:_ i -> if i >= 1 then Unix._exit 9 else i)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  check_int "one result per item" 6 (List.length results);
  List.iteri
    (fun i r ->
      match r with
      | Ok v ->
          check_int "only item 0 arrives" 0 i;
          check_int "value" 0 v
      | Error d ->
          check_bool (Printf.sprintf "item %d is a loss" i) true (i >= 1);
          check_bool "kind is shard-lost" true
            (d.Diagnostic.kind = Diagnostic.Shard_lost);
          check_bool "diagnostic locates the item" true
            (d.Diagnostic.line = Some i);
          if i <= 2 then
            check_bool
              (Printf.sprintf "item %d: the exit code of its worker" i)
              true
              (contains d.Diagnostic.message "exited with code 9")
          else begin
            check_bool
              (Printf.sprintf "item %d: never run" i)
              true
              (contains d.Diagnostic.message
                 (Printf.sprintf "item %d of 6 was never run: no worker left" i));
            check_bool
              (Printf.sprintf "item %d: names no worker" i)
              false
              (contains d.Diagnostic.message "worker 0"
              || contains d.Diagnostic.message "worker 1")
          end)
    results

(* A worker reads its next index on stdin. The worker that runs item 1
   closes it, delivers, and exits at its next read, while the other
   worker is still on item 0; so the parent's write of index 2 meets a
   pipe with no reader. The parent must survive the write, and the
   index goes to the other worker. *)
let test_map_worker_exits_before_reading () =
  let results =
    Shard.map ~jobs:2
      ~f:(fun ~seed:_ i ->
        if i = 1 then Unix.close Unix.stdin else Unix.sleepf 0.1;
        i)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  check_bool "every item delivered" true
    (results = List.map (fun i -> Ok i) [ 0; 1; 2; 3; 4; 5 ])

(* [--engine reference] really runs the reference engine: its merged
   dump equals the VM's, and its shards never lower (only VM lowering
   bumps [session.lower.*]). *)
let test_collect_reference_engine () =
  let benches = [ Spec.find "mcf"; Spec.find "art" ] in
  let collect engine =
    Shard.collect_workloads ~jobs:2 ~metrics:true ~engine benches
  in
  let vm = collect Interp.Vm and reference = collect Interp.Reference in
  check_int "no shard lost" 0
    (List.length vm.Shard.lost + List.length reference.Shard.lost);
  check_string "reference dump = VM dump"
    (Raw.to_string vm.Shard.raw)
    (Raw.to_string reference.Shard.raw);
  let lowered (c : Shard.collected) =
    List.exists
      (fun (_, snap) ->
        List.exists
          (fun (name, v) ->
            String.length name > 14
            && String.sub name 0 14 = "session.lower."
            && v <> Metrics.Counter 0)
          snap)
      c.Shard.shard_metrics
  in
  check_int "a snapshot per shard" 2 (List.length reference.Shard.shard_metrics);
  check_bool "the VM shards lower" true (lowered vm);
  check_bool "the reference shards never lower" false (lowered reference)

(* {2 The perf gate} *)

let doc ?(schema = "ppp-bench/1") ~name ~ppp_overhead () =
  J.Obj
    [
      ("schema", J.Str schema);
      ("scale", J.Int 1);
      ( "benchmarks",
        J.Arr
          [
            J.Obj
              [
                ("name", J.Str name);
                ( "methods",
                  J.Obj [ ("ppp", J.Obj [ ("overhead", J.Float ppp_overhead) ]) ]
                );
              ];
          ] );
    ]

(* The gate's failures, missing-metric warnings dropped. *)
let gate_failures ~baseline ~current ~pct =
  (Gate.run ~baseline ~current ~pct ()).Gate.failures

let test_gate_semantics () =
  let base = doc ~name:"vpr" ~ppp_overhead:0.10 () in
  check_int "identical docs pass" 0
    (List.length (gate_failures ~baseline:base ~current:base ~pct:1.0));
  check_int "improvement passes" 0
    (List.length
       (gate_failures ~baseline:base
          ~current:(doc ~name:"vpr" ~ppp_overhead:0.05 ())
          ~pct:1.0));
  (match
     gate_failures ~baseline:base
       ~current:(doc ~name:"vpr" ~ppp_overhead:0.2 ())
       ~pct:25.0
   with
  | [ f ] ->
      check_string "regression metric" "ppp.overhead" f.Gate.metric;
      check_string "regression bench" "vpr" f.Gate.bench
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 failure, got %d" (List.length fs)));
  check_bool "within tolerance passes" true
    (gate_failures ~baseline:base
       ~current:(doc ~name:"vpr" ~ppp_overhead:0.11 ())
       ~pct:25.0
    = []);
  (match
     gate_failures ~baseline:base
       ~current:(doc ~name:"mcf" ~ppp_overhead:0.10 ())
       ~pct:1.0
   with
  | [ f ] -> check_string "missing bench is a failure" "missing" f.Gate.metric
  | _ -> Alcotest.fail "expected a missing-bench failure");
  (match
     gate_failures ~baseline:base
       ~current:(doc ~schema:"ppp-bench/2" ~name:"vpr" ~ppp_overhead:0.10 ())
       ~pct:1.0
   with
  | [ f ] -> check_string "schema mismatch is a failure" "schema" f.Gate.metric
  | _ -> Alcotest.fail "expected a schema failure")

(* The gate smoke path end-to-end on a cheap subset: two independently
   computed documents of the same tree gate cleanly at a tight
   tolerance, and the document round-trips through its own text. *)
let test_gate_smoke_subset () =
  let rows () =
    List.map R.bench_json_one (R.prepare_all ~names:[ "vpr"; "mcf" ] ())
  in
  let doc_a = J.canonical (R.bench_json_wrap ~scale:1 ~seed:0 (rows ())) in
  let doc_b = J.canonical (R.bench_json_wrap ~scale:1 ~seed:0 (rows ())) in
  check_int "unchanged tree gates cleanly" 0
    (List.length (gate_failures ~baseline:doc_a ~current:doc_b ~pct:0.01));
  (* Schema round-trip: parsing the canonical text and re-rendering it
     is byte-stable (floats may lose bits of precision on the first
     print, but the printed form is a fixed point). *)
  let text = J.to_string doc_a in
  let reparsed = J.canonical (J.of_string text) in
  check_string "JSON round-trips byte-identically" text (J.to_string reparsed);
  check_bool "round-trip preserves structure" true
    (J.member reparsed "schema" = J.member doc_a "schema"
    && List.length (J.to_list (Option.get (J.member reparsed "benchmarks"))) = 2)

(* The committed baseline: well-formed, canonical, covers every
   workload, and gates cleanly against itself. The full
   current-tree-vs-baseline gate runs in CI's shard job (it needs the
   whole evaluation pass). *)
let test_committed_baseline () =
  let ic = open_in_bin Fixtures.baseline_path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let doc = J.of_string text in
  check_bool "schema" true (J.member doc "schema" = Some (J.Str "ppp-bench/1"));
  check_int "all workloads present" (List.length Spec.all)
    (List.length (J.to_list (Option.get (J.member doc "benchmarks"))));
  check_bool "baseline text is canonical" true
    (String.trim text = J.to_string (J.canonical doc));
  check_int "baseline gates cleanly against itself" 0
    (List.length (gate_failures ~baseline:doc ~current:doc ~pct:0.01))

let suite =
  [
    Alcotest.test_case "collect differential -j1/-j2/-j8" `Slow
      test_collect_differential;
    Alcotest.test_case "map keeps item order" `Quick test_map_order_and_results;
    Alcotest.test_case "seed derivation is -j invariant" `Quick
      test_seed_derivation_j_invariant;
    Alcotest.test_case "worker crash degrades to diagnostics" `Quick
      test_worker_crash;
    Alcotest.test_case "map drains every worker as results arrive" `Quick
      test_map_drains_workers_together;
    Alcotest.test_case "timeout loses only undelivered items" `Quick
      test_map_timeout_keeps_delivered;
    Alcotest.test_case "worker exception costs one item" `Quick
      test_worker_exception;
    Alcotest.test_case "every worker dies: each item a located loss" `Quick
      test_map_every_worker_dies;
    Alcotest.test_case "worker exiting before its next index" `Quick
      test_map_worker_exits_before_reading;
    Alcotest.test_case "collect with the reference engine" `Quick
      test_collect_reference_engine;
    Alcotest.test_case "gate semantics" `Quick test_gate_semantics;
    Alcotest.test_case "gate smoke on a subset + JSON round-trip" `Slow
      test_gate_smoke_subset;
    Alcotest.test_case "committed baseline is sound" `Quick
      test_committed_baseline;
  ]
