module J = Ppp_obs.Jsonx

type failure = {
  bench : string;
  metric : string;
  baseline : float;
  current : float;
}

type warning = { bench : string; metric : string }
type result = { failures : failure list; warnings : warning list }

let benches_of json =
  J.to_list (Option.value ~default:(J.Arr []) (J.member json "benchmarks"))
  |> List.filter_map (fun b ->
         match J.member b "name" with
         | Some (J.Str n) -> Some (n, b)
         | _ -> None)

(* Beyond [pct] percent of the baseline, with a 1e-9 absolute floor so
   zero baselines don't trip on rounding. *)
let regressed bound ~pct ~baseline ~current =
  let slack = Float.max 1e-9 (pct /. 100. *. Float.abs baseline) in
  match bound with
  | Report.Ceiling -> current > baseline +. slack
  | Report.Floor -> current < baseline -. slack

let run ?(strict = false) ~baseline ~current ~pct () =
  let fails = ref [] in
  let warns = ref [] in
  let fail bench metric b c =
    fails := { bench; metric; baseline = b; current = c } :: !fails
  in
  (* A metric the baseline has but the current run lacks compares
     nothing; that silence used to pass the gate. Report it — as a
     warning by default, as a failure under [strict]. *)
  let missing bench metric b =
    if strict then fail bench metric b Float.nan
    else warns := { bench; metric } :: !warns
  in
  (match (J.member baseline "schema", J.member current "schema") with
  | Some (J.Str a), Some (J.Str b) when a = b -> ()
  | _ -> fail "(document)" "schema" Float.nan Float.nan);
  let cur_benches = benches_of current in
  List.iter
    (fun (name, bj) ->
      match List.assoc_opt name cur_benches with
      | None -> fail name "missing" 1.0 0.0
      | Some cj ->
          List.iter
            (fun (s : Report.section) ->
              match (s.bounds, J.member bj s.name, J.member cj s.name) with
              | [], _, _ | _, None, _ -> ()
              | _, Some _, None -> missing name s.name Float.nan
              | bounds, Some bs, Some cs ->
                  List.iter
                    (fun (metric, get, bound) ->
                      match (get bs, get cs) with
                      | Some b, Some c ->
                          if regressed bound ~pct ~baseline:b ~current:c then
                            fail name metric b c
                      | Some b, None -> missing name metric b
                      | None, _ -> ())
                    bounds)
            Report.sections)
    (benches_of baseline);
  { failures = List.rev !fails; warnings = List.rev !warns }

let floors ~sections doc =
  let benches = benches_of doc in
  List.filter_map
    (fun (s : Report.section) ->
      Option.map
        (fun floor ->
          let rows =
            List.filter_map
              (fun (name, b) -> Option.map (fun j -> (name, j)) (J.member b s.name))
              benches
          in
          ( s.name,
            if rows = [] then Error "no benchmark carries this section"
            else floor rows ))
        s.floor)
    sections

let pp_failure ppf (f : failure) =
  if f.metric = "schema" then
    Format.fprintf ppf "%s: schema mismatch between baseline and current"
      f.bench
  else if f.metric = "missing" then
    Format.fprintf ppf "%s: present in baseline but missing from current run"
      f.bench
  else if Float.is_nan f.current then
    Format.fprintf ppf
      "%s: %s present in baseline (%g) but missing from current run" f.bench
      f.metric f.baseline
  else
    Format.fprintf ppf "%s: %s regressed %g -> %g" f.bench f.metric f.baseline
      f.current

let pp_warning ppf (w : warning) =
  Format.fprintf ppf
    "%s: %s present in baseline but missing from current run (not gated; \
     --strict makes this a failure)"
    w.bench w.metric

let pp_failures ppf = function
  | [] -> ()
  | fs ->
      Format.pp_open_vbox ppf 0;
      List.iter (fun f -> Format.fprintf ppf "%a@," pp_failure f) fs;
      Format.pp_close_box ppf ()
