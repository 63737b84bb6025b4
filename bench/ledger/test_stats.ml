(* Unit tests for the ledger's statistics: quartiles must agree with
   Python's [statistics.quantiles(xs, n=4)], which checks the results. *)

open Ledger_core

let float_triple = Alcotest.(triple (float 1e-12) (float 1e-12) (float 1e-12))

let quartiles () =
  List.iter
    (fun (xs, expected) ->
      Alcotest.check float_triple "quartiles" expected (Stats.quartiles xs))
    [ ([ 1.; 2.; 3.; 4. ], (1.25, 2.5, 3.75));
      ([ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ], (2.75, 5.5, 8.25));
      ([ 3.; 1. ], (0.5, 2.0, 3.5));
      ([ 5.; 1.; 9.; 7.; 3. ], (2.0, 5.0, 8.0));
      ([ 2.5 ], (2.5, 2.5, 2.5)) ];
  Alcotest.(check (float 1e-12)) "median of even count" 2.5
    (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 1e-12)) "spread" (2.5 /. 2.5)
    (Stats.spread [ 1.; 2.; 3.; 4. ])

(* The highest percentile with at least ten samples beyond it. *)
let supported () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check (option int)) (Printf.sprintf "n=%d" n) expected
        (Stats.supported_permille n))
    [ (19, None); (20, Some 500); (39, Some 500); (40, Some 750);
      (99, Some 750); (100, Some 900); (200, Some 950); (999, Some 950);
      (1000, Some 990); (10_000, Some 999) ];
  let xs = List.init 100 (fun i -> float (i + 1)) in
  Alcotest.(check (float 0.)) "p90 nearest rank" 90.
    (Stats.percentile_permille xs 900);
  Alcotest.(check string) "name" "p99.9" (Stats.permille_name 999)

let verdicts () =
  let v ?(higher_is_better = false) base change =
    Stats.verdict_name
      (Stats.compare_sides ~bound:0.1 ~higher_is_better base change).Stats.verdict
  in
  let base = List.init 10 (fun i -> 100. +. float (i mod 3)) in
  let shift d = List.map (fun x -> x +. d) base in
  Alcotest.(check string) "faster wins every pair" "better" (v base (shift (-20.)));
  Alcotest.(check string) "small noise" "within-bound" (v base (shift 0.5));
  Alcotest.(check string) "slower past the bound" "worse" (v base (shift 15.));
  Alcotest.(check string) "higher is better" "better"
    (v ~higher_is_better:true base (shift 20.));
  let wide = List.init 10 (fun i -> if i mod 2 = 0 then 50. else 150.) in
  Alcotest.(check string) "spread wider than the bound" "unresolved"
    (v wide (shift 0.));
  Alcotest.(check string) "unless every change run beats every base run" "better"
    (v wide (List.map (fun _ -> 10.) wide))

let () =
  Alcotest.run "ledger"
    [ ( "stats",
        [ Alcotest.test_case "quartiles" `Quick quartiles;
          Alcotest.test_case "supported percentile" `Quick supported;
          Alcotest.test_case "compare verdicts" `Quick verdicts ] ) ]
