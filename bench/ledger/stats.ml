(* Summary statistics for the ledger, and the comparison rule of the
   choosing-metrics guide (section 8). *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Python's [statistics.quantiles xs ~n:4] with its default "exclusive"
   method, so spreads computed here agree with any script that checks
   the results in Python. A single sample is its own three quartiles. *)
let quartiles xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then invalid_arg "Stats.quartiles: no samples"
  else if n = 1 then (d.(0), d.(0), d.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float (4 - delta)) +. (d.(j) *. float delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, m, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs m

(* Tail percentiles, in permille so the ladder arithmetic is exact. *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]

let rank ~n q = max 1 (((n * q) + 999) / 1000)

(* The highest percentile on the ladder with at least ten samples beyond
   it: the highest one the samples can support. *)
let supported_permille n = List.find_opt (fun q -> n - rank ~n q >= 10) ladder

(* Nearest-rank percentile. *)
let percentile_permille xs q =
  let d = sorted xs in
  d.(min (Array.length d) (rank ~n:(Array.length d) q) - 1)

let permille_name q =
  if q mod 10 = 0 then Printf.sprintf "p%d" (q / 10)
  else Printf.sprintf "p%d.%d" (q / 10) (q mod 10)

type verdict = Better | Worse | Within_bound | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Within_bound -> "within-bound"
  | Unresolved -> "unresolved"

type row = {
  base : float * float * float;  (** quartiles of the base side *)
  change : float * float * float;
  won : float;  (** share of index-wise pairs the change side won *)
  verdict : verdict;
}

(* A change is better when it wins at least nine tenths of the pairs and
   its median moved by more than the base side's own IQR; worse when its
   median is worse by more than [bound]. Either side spreading wider
   than [bound] leaves the row unresolved, unless every change run beats
   every base run. *)
let compare_sides ~bound ~higher_is_better base change =
  let beats a b = if higher_is_better then b > a else b < a in
  let pairs = min (List.length base) (List.length change) in
  let first xs = List.filteri (fun i _ -> i < pairs) xs in
  let wins =
    List.combine (first base) (first change)
    |> List.filter (fun (b, c) -> beats b c)
    |> List.length
  in
  let won = if pairs = 0 then 0. else float wins /. float pairs in
  let ((bq1, bm, bq3) as bq) = quartiles base in
  let ((_, cm, _) as cq) = quartiles change in
  let worse_by = (if higher_is_better then bm -. cm else cm -. bm) /. Float.abs bm in
  let verdict =
    if spread base > bound || spread change > bound then
      if List.for_all (fun c -> List.for_all (fun b -> beats b c) base) change
      then Better
      else Unresolved
    else if won >= 0.9 && Float.abs (cm -. bm) > bq3 -. bq1 && beats bm cm then
      Better
    else if worse_by > bound then Worse
    else Within_bound
  in
  { base = bq; change = cq; won; verdict }
