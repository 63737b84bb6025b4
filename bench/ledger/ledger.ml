(* The performance ledger: the repo's end-to-end and per-layer benchmark.

   Usage:
     ledger.exe [--workload W]... [--seed N] [--seconds S] [--json F]
                [--trace FILE] [--smoke] [--expect BENCHMARK.json]
     ledger.exe compare A.json... -- B.json... [--benchmark BENCHMARK.json]

   Without --trace, each selected workload (default: all five) runs in
   its own forked child: set-up [setup_reps] times, then units of work
   for S seconds, then the verify pass; its end-to-end metrics are
   printed by name with their units. With --trace FILE, one traced round
   of every workload runs instead, writing a Chrome trace to FILE and
   printing the per-layer metrics and a self-time table. The last line
   of standard output is always one JSON object:
   {"correct", "attempted", "failed", "metrics"}. Exit code 1 on any
   failed operation or verify mismatch. *)

open Ledger_core
open Common
module Jsonx = Ppp_obs.Jsonx

let workloads =
  [ "collect-exact"; "collect-sampled"; "tiered"; "daemon-warm"; "daemon-cold" ]

let end_to_end = [ ("op_ms.p50", "ms"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

let handle name sizes ~seed =
  match name with
  | "collect-exact" -> Collect.handle Collect.Exact sizes ~seed
  | "collect-sampled" -> Collect.handle Collect.Sampled sizes ~seed
  | "tiered" -> Tiered.handle sizes
  | "daemon-warm" -> Daemon.handle Daemon.Warm sizes ~seed
  | "daemon-cold" -> Daemon.handle Daemon.Cold sizes ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

let log fmt = Printf.eprintf ("ledger: " ^^ fmt ^^ "\n%!")

(* ---- one untraced workload run ------------------------------------- *)

type measured = {
  setup_s : float list;
  samples : sample list;
  peak_rss_kb : int;
  verified : verified;
}

(* Set up [setup_reps] times (keeping the last), run units of work until
   [seconds] have passed, read peak RSS, then verify. *)
let measure name sizes ~seed ~seconds =
  let rec set_up k times =
    let h, s = Clock.time (fun () -> handle name sizes ~seed) in
    if k <= 1 then (h, List.rev (s :: times))
    else begin
      h.stop ();
      set_up (k - 1) (s :: times)
    end
  in
  let h, setup_s = set_up sizes.setup_reps [] in
  Fun.protect ~finally:h.stop @@ fun () ->
  let t0 = Clock.now_ns () in
  let rec loop i acc =
    if i > 0 && Clock.seconds_since t0 >= seconds then List.rev acc
    else loop (i + 1) (h.unit_of_work i :: acc)
  in
  let samples = loop 0 [] in
  let timed_s = Clock.seconds_since t0 in
  let peak_rss_kb = h.peak_rss_kb () in
  let verified, verify_s = Clock.time h.verify in
  log "%s: set-up %.1f s, timed %.1f s, verify %.1f s" name
    (List.fold_left ( +. ) 0. setup_s) timed_s verify_s;
  { setup_s; samples; peak_rss_kb; verified }

(* In a forked child, so peak memory and GC state are the workload's
   own. *)
let measure_in_child name sizes ~seed ~seconds =
  match
    Ppp_harness.Shard.map ~jobs:1
      ~f:(fun ~seed:_ () -> measure name sizes ~seed ~seconds)
      [ () ]
  with
  | [ Ok m ] -> Ok m
  | [ Error d ] -> Error (Format.asprintf "%a" Ppp_resilience.Diagnostic.pp d)
  | _ -> Error "workload child returned no result"

let ms_of samples = List.map (fun s -> 1000. *. s.dur_s) samples

let e2e_values m =
  [ ("op_ms.p50", Stats.median (ms_of m.samples));
    ("peak_rss_mb", float m.peak_rss_kb /. 1024.);
    ("setup_s", Stats.median m.setup_s) ]

let failed_checks checks = List.filter (fun (_, ok) -> not ok) checks

let tally m =
  let checks = m.verified.checks in
  let attempted = List.fold_left (fun a s -> a + s.attempted) 0 m.samples in
  let failed = List.fold_left (fun a s -> a + s.failed) 0 m.samples in
  (attempted + List.length checks, failed + List.length (failed_checks checks))

let print_metric workload name value unit note =
  Printf.printf "%-16s %-24s %14.4f %-9s %s\n" workload name value unit note

(* After the gated metrics, lines that are not gated: the highest
   percentile the samples support, the failed share, and the workload's
   own figures. *)
let print_ungated workload m =
  let n = List.length m.samples and xs = ms_of m.samples in
  let note = "(not gated)" in
  Option.iter
    (fun q ->
      if q > 500 then
        print_metric workload ("op_ms." ^ Stats.permille_name q)
          (Stats.percentile_permille xs q) "ms"
          (Printf.sprintf "(n=%d, not gated)" n))
    (Stats.supported_permille n);
  let attempted, failed = tally m in
  print_metric workload "fail_frac" (float failed /. float attempted) "ratio"
    (Printf.sprintf "(%d of %d, not gated)" failed attempted);
  List.iter (fun (name, v, unit) -> print_metric workload name v unit note) m.verified.info

let report_measured workload m probe =
  let values = e2e_values m in
  let n = List.length m.samples in
  List.iter
    (fun (name, unit) ->
      let note =
        match name with
        | "op_ms.p50" -> Printf.sprintf "(n=%d)" n
        | "setup_s" -> Printf.sprintf "(n=%d)" (List.length m.setup_s)
        | _ -> ""
      in
      print_metric workload name (List.assoc name values) unit note)
    end_to_end;
  print_ungated workload m;
  print_metric workload "host.probe_ms" probe "ms" "(not gated)";
  let checks = m.verified.checks in
  let bad = failed_checks checks in
  Printf.printf "%-16s verify %s (%d checks)\n" workload
    (if bad = [] then "ok" else "FAILED") (List.length checks);
  List.iter (fun (what, _) -> Printf.printf "  mismatch: %s\n" what) bad;
  values

(* ---- output ---------------------------------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* The last line of standard output: the machine-readable result. *)
let result_line ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num value) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed (String.concat ", " fields)

let nproc () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text ->
      List.length
        (List.filter
           (fun l -> String.starts_with ~prefix:"processor" l)
           (String.split_on_char '\n' text))
  | exception Sys_error _ -> 0

let provenance ~seed ~seconds ~smoke sizes =
  Jsonx.Obj
    [ ("nproc", Jsonx.Int (nproc ()));
      ("ocaml", Jsonx.Str Sys.ocaml_version);
      ("seed", Jsonx.Int seed);
      ("seconds", Jsonx.Float seconds);
      ("smoke", Jsonx.Bool smoke);
      ("scale", Jsonx.Int sizes.scale);
      ("daemon_scale", Jsonx.Int sizes.daemon_scale);
      ("daemon_programs", Jsonx.Int (List.length sizes.daemon_benches));
      ("setup_reps", Jsonx.Int sizes.setup_reps);
      ("fleet_depth", Jsonx.Int sizes.fleet_depth);
      ("sample_denom", Jsonx.Int sizes.sample_denom);
      ("daemon_peak_after_cycles", Jsonx.Int Daemon.peak_after_cycles) ]

let floats xs = Jsonx.Arr (List.map (fun x -> Jsonx.Float x) xs)

let metrics_json values units =
  Jsonx.Obj
    (List.map
       (fun (name, v) ->
         (name, Jsonx.Obj [ ("value", Jsonx.Float v); ("unit", Jsonx.Str (List.assoc name units)) ]))
       values)

(* ---- BENCHMARK.json --------------------------------------------------- *)

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Jsonx.of_string text
  | exception Sys_error e -> failwith e

let declared bench key =
  List.map
    (fun m ->
      let field k =
        match Jsonx.member m k with Some (Jsonx.Str s) -> s | _ -> ""
      in
      (field "name", field "unit"))
    (Jsonx.to_list (Option.value ~default:Jsonx.Null (Jsonx.member bench key)))

(* The printed metric names and units must equal BENCHMARK.json's. *)
let expect_names path ~traced =
  let bench = read_json path in
  let same what ours theirs =
    let ours = List.sort compare ours and theirs = List.sort compare theirs in
    if ours <> theirs then log "%s differ from %s" what path;
    ours = theirs
  in
  let ours, key =
    if traced then
      (List.map (fun m -> (m.Layers.name, m.Layers.unit)) Layers.metrics, "per_layer")
    else (end_to_end, "end_to_end")
  in
  same "workloads" workloads (List.map fst (declared bench "workloads"))
  && same (key ^ " metrics") ours (declared bench key)

(* ---- runs ------------------------------------------------------------- *)

let run_untraced ~selected ~sizes ~seed ~seconds =
  let results =
    List.map
      (fun w ->
        let probe = host_probe_ms () in
        log "%s: running (host probe %.1f ms)" w probe;
        (w, probe, measure_in_child w sizes ~seed ~seconds))
      selected
  in
  let attempted = ref 0 and failed = ref 0 and line = ref [] and docs = ref [] in
  List.iter
    (fun (w, probe, r) ->
      match r with
      | Error msg ->
          Printf.printf "%-16s FAILED: %s\n" w msg;
          incr attempted;
          incr failed
      | Ok m ->
          let values = report_measured w m probe in
          let a, f = tally m in
          attempted := !attempted + a;
          failed := !failed + f;
          let key name = if List.length selected = 1 then name else w ^ "/" ^ name in
          line :=
            !line @ List.map (fun (n, v) -> (key n, v, List.assoc n end_to_end)) values;
          docs :=
            ( w,
              Jsonx.Obj
                [ ("metrics", metrics_json values end_to_end);
                  ("host_probe_ms", Jsonx.Float probe);
                  ("attempted", Jsonx.Int a);
                  ("failed", Jsonx.Int f);
                  ("setup_s", floats m.setup_s);
                  ( "info",
                    metrics_json
                      (List.map (fun (n, v, _) -> (n, v)) m.verified.info)
                      (List.map (fun (n, _, u) -> (n, u)) m.verified.info) );
                  ("units_ms", floats (ms_of m.samples)) ] )
            :: !docs)
    results;
  (!attempted, !failed, !line, [ ("workloads", Jsonx.Obj (List.rev !docs)) ])

let run_traced ~selected ~sizes ~seed ~trace_file =
  let w = List.hd selected in
  let probe = host_probe_ms () in
  log "traced run, overhead measured on %s (host probe %.1f ms)" w probe;
  (* Tracing overhead on the workload's own unit of work: two untraced
     and two traced units alternate on one set-up, so host drift
     cancels. *)
  let h = handle w sizes ~seed in
  let pairs, checks =
    Fun.protect ~finally:h.stop (fun () ->
        let pairs =
          List.init 2 (fun i ->
              let untraced = h.unit_of_work (2 * i) in
              Layers.tracing true;
              let traced =
                Fun.protect ~finally:(fun () -> Layers.tracing false) (fun () ->
                    h.unit_of_work ((2 * i) + 1))
              in
              (untraced, traced))
        in
        (pairs, (h.verify ()).checks))
  in
  let median side = Stats.median (List.map (fun p -> (side p).dur_s) pairs) in
  let trace_overhead_pct = 100. *. ((median snd /. median fst) -. 1.) in
  let units = List.concat_map (fun (u, t) -> [ u; t ]) pairs in
  let r = Layers.run sizes ~seed ~workload:w ~trace_overhead_pct ~trace_file in
  let checks = checks @ r.Layers.checks in
  List.iter
    (fun mt ->
      print_metric "layer" mt.Layers.name (List.assoc mt.Layers.name r.Layers.values)
        mt.Layers.unit "")
    Layers.metrics;
  Printf.printf "%-32s %6s %12s %12s\n" "span" "calls" "total_ms" "self_ms";
  List.iter
    (fun (name, calls, total, self) ->
      Printf.printf "%-32s %6d %12.2f %12.2f\n" name calls (1000. *. total) (1000. *. self))
    (Span.rows ());
  let bad = failed_checks checks in
  Printf.printf "traced run: verify %s (%d checks), trace written to %s\n"
    (if bad = [] then "ok" else "FAILED") (List.length checks) trace_file;
  List.iter (fun (what, _) -> Printf.printf "  mismatch: %s\n" what) bad;
  let failed_units = List.fold_left (fun a s -> a + s.failed) 0 units in
  let attempted = List.length checks + List.fold_left (fun a s -> a + s.attempted) 0 units in
  let units = List.map (fun mt -> (mt.Layers.name, mt.Layers.unit)) Layers.metrics in
  ( attempted,
    failed_units + List.length bad,
    List.map (fun (n, v) -> (n, v, List.assoc n units)) r.Layers.values,
    [ ("layers", metrics_json r.Layers.values units);
      ("host_probe_ms", Jsonx.Float probe);
      ("self_times",
        Jsonx.Arr
          (List.map
             (fun (name, calls, total, self) ->
               Jsonx.Obj
                 [ ("span", Jsonx.Str name); ("calls", Jsonx.Int calls);
                   ("total_ms", Jsonx.Float (1000. *. total));
                   ("self_ms", Jsonx.Float (1000. *. self)) ])
             (Span.rows ())));
      ("metrics_snapshot", Ppp_obs.Sink.metrics_json r.Layers.snapshot) ] )

(* ---- compare ---------------------------------------------------------- *)

let num = function
  | Some (Jsonx.Float f) -> Some f
  | Some (Jsonx.Int i) -> Some (float i)
  | _ -> None

(* Values of [metric] on [workload] across result files. *)
let values_of docs ~workload ~metric =
  List.filter_map
    (fun d ->
      Option.bind (Jsonx.member d "workloads") (fun ws ->
          Option.bind (Jsonx.member ws workload) (fun w ->
              Option.bind (Jsonx.member w "metrics") (fun ms ->
                  Option.bind (Jsonx.member ms metric) (fun v ->
                      num (Jsonx.member v "value"))))))
    docs

let compare_main ~benchmark base change =
  let bench = read_json benchmark in
  let base = List.map read_json base and change = List.map read_json change in
  Printf.printf "%-16s %-14s %28s %28s %6s  %s\n" "workload" "metric"
    "base median [q1, q3]" "change median [q1, q3]" "won" "verdict";
  List.iter
    (fun m ->
      let metric = match Jsonx.member m "name" with Some (Jsonx.Str s) -> s | _ -> "" in
      let bound = Option.value ~default:0. (num (Jsonx.member m "bound")) in
      let higher_is_better = Jsonx.member m "better" = Some (Jsonx.Str "higher") in
      List.iter
        (fun workload ->
          match (values_of base ~workload ~metric, values_of change ~workload ~metric) with
          | [], _ | _, [] -> ()
          | b, c ->
              let r = Stats.compare_sides ~bound ~higher_is_better b c in
              let show (q1, med, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3 in
              Printf.printf "%-16s %-14s %28s %28s %5.0f%%  %s\n" workload metric
                (show r.Stats.base) (show r.Stats.change) (100. *. r.Stats.won)
                (Stats.verdict_name r.Stats.verdict))
        workloads)
    (Jsonx.to_list (Option.value ~default:Jsonx.Null (Jsonx.member bench "end_to_end")))

(* ---- main ------------------------------------------------------------- *)

let usage =
  "ledger.exe [--workload W]... [--seed N] [--seconds S] [--json F] [--trace \
   FILE] [--smoke] [--expect BENCHMARK.json]\n\
   ledger.exe compare A.json... -- B.json... [--benchmark BENCHMARK.json]"

let main () =
  let selected = ref [] and seed = ref 1 and seconds = ref 8. in
  let json = ref None and trace = ref None and smoke = ref false in
  let expect = ref None in
  let specs =
    [ ("--workload", Arg.String (fun w -> selected := !selected @ [ w ]), "W workload to run (repeatable; default all)");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S timed seconds per workload (default 8)");
      ("--json", Arg.String (fun f -> json := Some f), "F write the full results document");
      ("--trace", Arg.String (fun f -> trace := Some f), "FILE traced run; Chrome trace to FILE");
      ("--smoke", Arg.Set smoke, " tiny sizes");
      ("--expect", Arg.String (fun f -> expect := Some f), "F fail unless metric names equal F's") ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let selected = if !selected = [] then workloads else !selected in
  List.iter
    (fun w -> if not (List.mem w workloads) then (log "unknown workload %s" w; exit 2))
    selected;
  let sizes = if !smoke then Common.smoke else Common.full in
  let names_ok =
    match !expect with
    | None -> true
    | Some f -> expect_names f ~traced:(!trace <> None)
  in
  let attempted, failed, line, doc =
    match !trace with
    | None -> run_untraced ~selected ~sizes ~seed:!seed ~seconds:!seconds
    | Some trace_file -> run_traced ~selected ~sizes ~seed:!seed ~trace_file
  in
  Option.iter
    (fun path ->
      Ppp_obs.Sink.write_json ~path
        (Jsonx.Obj
           (("provenance", provenance ~seed:!seed ~seconds:!seconds ~smoke:!smoke sizes)
           :: doc)))
    !json;
  result_line ~attempted ~failed line;
  if failed > 0 || not names_ok then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest ->
      let rec split acc = function
        | "--" :: b -> (List.rev acc, b)
        | a :: r -> split (a :: acc) r
        | [] -> (List.rev acc, [])
      in
      let base, change = split [] rest in
      let benchmark, change =
        match List.rev change with
        | f :: "--benchmark" :: r -> (f, List.rev r)
        | _ -> ("BENCHMARK.json", change)
      in
      if base = [] || change = [] then (prerr_endline usage; exit 2);
      compare_main ~benchmark base change
  | _ -> main ()
