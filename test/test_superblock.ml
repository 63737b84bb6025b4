module Ir = Ppp_ir.Ir
module Interp = Ppp_interp.Interp
module Superblock = Ppp_opt.Superblock
module Path_profile = Ppp_profile.Path_profile
module Profile_io = Ppp_profile.Profile_io
module Decision = Ppp_opt.Decision
module Session = Ppp_session.Session
module H = Ppp_harness.Pipeline

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The hottest traced path of each routine of a program. *)
let hottest_paths p =
  let o = Interp.run p in
  let profile = Option.get o.Interp.path_profile in
  let acc = ref [] in
  Path_profile.iter_routines profile (fun name t ->
      let best = ref None in
      Path_profile.iter t (fun path n ->
          match !best with
          | Some (_, n') when n' >= n -> ()
          | _ -> best := Some (path, n));
      match !best with Some (path, _) -> acc := (name, path) :: !acc | None -> ());
  (o, !acc)

let test_superblock_preserves_and_speeds () =
  let p = (Ppp_workloads.Spec.find "mcf").Ppp_workloads.Spec.build ~scale:1 in
  let o, hot = hottest_paths p in
  let p', stats = Superblock.form p ~hot_paths:hot in
  check_bool "did something" true
    (stats.Superblock.jumps_merged > 0 || stats.Superblock.blocks_duplicated > 0);
  let o' = Interp.run p' in
  check_bool "output preserved" true (o.Interp.output = o'.Interp.output);
  check_bool "not slower" true (o'.Interp.base_cost <= o.Interp.base_cost)

let test_superblock_empty_paths () =
  let p = (Ppp_workloads.Spec.find "gap").Ppp_workloads.Spec.build ~scale:1 in
  let p', stats = Superblock.form p ~hot_paths:[] in
  check_bool "no-op without paths" true (stats.Superblock.routines_optimized = 0);
  check_bool "program unchanged" true (p' = p)

let prop_superblock_preserves_output =
  QCheck.Test.make ~name:"superblock formation preserves output" ~count:40
    QCheck.(small_int)
    (fun seed ->
      let p = Ppp_workloads.Gen.program ~seed in
      let o, hot = hottest_paths p in
      let p', _ = Superblock.form p ~hot_paths:hot in
      let o' = Interp.run p' in
      o.Interp.output = o'.Interp.output
      && o.Interp.return_value = o'.Interp.return_value)

let prop_superblock_never_slower =
  QCheck.Test.make ~name:"superblock formation never increases cost" ~count:40
    QCheck.(small_int)
    (fun seed ->
      let p = Ppp_workloads.Gen.program ~seed in
      let o, hot = hottest_paths p in
      let p', _ = Superblock.form p ~hot_paths:hot in
      (Interp.run p').Interp.base_cost <= o.Interp.base_cost)

(* Full dynamic-optimizer integration: PPP-measured hot paths drive the
   superblock pass (the staged_optimizer example as a test). *)
let test_staged_loop () =
  let p = (Ppp_workloads.Spec.find "bzip2").Ppp_workloads.Spec.build ~scale:1 in
  let prep = H.prepare ~name:"bzip2" p in
  let p1 = prep.H.optimized in
  let ep = Option.get prep.H.base_outcome.Interp.edge_profile in
  let inst = Ppp_core.Instrument.instrument p1 ep Ppp_core.Config.ppp in
  let o2 =
    Interp.run
      ~config:
        { Interp.default_config with instrumentation = Some inst.Ppp_core.Instrument.rt }
      p1
  in
  let tables = Option.get o2.Interp.instr_state in
  let hot = ref [] in
  Hashtbl.iter
    (fun name table ->
      let plan = Hashtbl.find inst.Ppp_core.Instrument.plans name in
      let best = ref None in
      Ppp_interp.Instr_rt.Table.iter_nonzero table (fun k c ->
          match !best with
          | Some (_, c') when c' >= c -> ()
          | _ -> (
              match Ppp_core.Instrument.decoded_path plan k with
              | Some path -> best := Some (path, c)
              | None -> ()));
      match !best with Some (path, _) -> hot := (name, path) :: !hot | None -> ())
    tables;
  let p3, _ = Superblock.form p1 ~hot_paths:!hot in
  let o3 = Interp.run p3 in
  check_bool "staged loop output preserved" true
    (o3.Interp.output = prep.H.base_outcome.Interp.output);
  check_bool "staged loop speeds up" true
    (o3.Interp.base_cost < prep.H.base_outcome.Interp.base_cost)

(* {2 The closed pipeline loop} *)

let sb_flags = { H.superblocks = true; H.layout = true }

let sb_decisions ds =
  List.filter (function Decision.Superblock _ -> true | _ -> false) ds

(* Reoptimizing with superblocks on dirties exactly the straightened
   routines (plus whatever inlining/unrolling dirtied), records one
   Superblock decision per straightened routine with distinct stable
   keys, and actually invalidates session artifacts for them. *)
let test_reoptimize_dirties_straightened () =
  let p = (Ppp_workloads.Spec.find "bzip2").Ppp_workloads.Spec.build ~scale:1 in
  let session = Session.create ~name:"sb-dirty" () in
  let gens = H.reoptimize ~session ~flags:sb_flags ~iterations:3 ~name:"bzip2" p in
  check_int "three generations" 3 (List.length gens);
  List.iter
    (fun (g : H.generation) ->
      let sb = g.H.prep.H.superblock_stats in
      List.iter
        (fun r ->
          check_bool
            (Printf.sprintf "gen %d: straightened %s is dirty" g.H.gen r)
            true
            (List.mem r g.H.dirty))
        sb.Superblock.touched;
      let ds = sb_decisions g.H.decisions in
      check_int
        (Printf.sprintf "gen %d: one decision per straightened routine" g.H.gen)
        sb.Superblock.routines_optimized (List.length ds);
      let keys = List.map Decision.key ds in
      check_int
        (Printf.sprintf "gen %d: decision keys distinct" g.H.gen)
        (List.length keys)
        (List.length (List.sort_uniq compare keys));
      List.iter
        (fun d ->
          check_bool
            (Printf.sprintf "gen %d: decision names a touched routine" g.H.gen)
            true
            (List.mem (Decision.routine d) sb.Superblock.touched))
        ds)
    gens;
  (* The first generation has no decoded profile yet; later ones must
     actually straighten, and the dirtied routines must invalidate. *)
  let g2 = List.nth gens 1 in
  check_bool "gen 2 straightened something" true
    (g2.H.prep.H.superblock_stats.Superblock.routines_optimized > 0);
  check_bool "session saw invalidations" true
    ((Session.stats session).Session.invalidations > 0)

(* reoptimize ~iterations:N is exactly N manual
   prepare / save-profile / stale-load / prepare ~profile round
   trips: the loop adds orchestration, never different optimization. *)
let test_iterate_equals_manual_roundtrips () =
  let name = "mcf" in
  let p = (Ppp_workloads.Spec.find name).Ppp_workloads.Spec.build ~scale:1 in
  let gens = H.reoptimize ~flags:sb_flags ~iterations:3 ~name p in
  let final = (List.nth gens 2).H.prep.H.optimized in
  let session = Session.create ~name:"sb-manual" () in
  let prep = ref (H.prepare ~session ~flags:sb_flags ~name p) in
  for _ = 2 to 3 do
    let cur = !prep.H.optimized in
    let buf = Buffer.create 65536 in
    let ppf = Format.formatter_of_buffer buf in
    Profile_io.save
      ?edges:!prep.H.base_outcome.Interp.edge_profile
      ?paths:!prep.H.base_outcome.Interp.path_profile ppf cur;
    Format.pp_print_flush ppf ();
    match Profile_io.load cur (Buffer.contents buf) with
    | Ok loaded ->
        prep := H.prepare ~session ~flags:sb_flags ~profile:loaded ~name cur
    | Error ds ->
        Alcotest.failf "profile round-trip rejected: %a"
          Ppp_resilience.Diagnostic.pp_list ds
  done;
  Alcotest.(check string)
    "iterate-3 = 3 manual round-trips"
    (Ppp_ir.Pp_ir.to_string final)
    (Ppp_ir.Pp_ir.to_string !prep.H.optimized)

(* A hot path that no longer names CFG edges of the routine is a
   structured mismatch — reported, never fatal, program untouched. *)
let test_stale_path_mismatch () =
  let p = (Ppp_workloads.Spec.find "gap").Ppp_workloads.Spec.build ~scale:1 in
  let rname = (List.hd p.Ir.routines).Ir.name in
  let p', stats = Superblock.form p ~hot_paths:[ (rname, [ 1_000_000 ]) ] in
  check_bool "program unchanged" true (p' = p);
  check_int "no routines straightened" 0 stats.Superblock.routines_optimized;
  check_int "no decisions" 0 (List.length stats.Superblock.decisions);
  (match stats.Superblock.mismatches with
  | [ m ] ->
      check_bool "names the routine" true (m.Superblock.mm_routine = rname);
      check_bool "classified stale" true
        (m.Superblock.mm_reason = Superblock.Stale_path);
      check_bool "mismatch renders" true
        (String.length (Format.asprintf "%a" Superblock.pp_mismatch m) > 0)
  | ms -> Alcotest.failf "expected one mismatch, got %d" (List.length ms));
  (* And straightening twice from the same inputs yields the same
     decision keys: the log is stable, not run-dependent. *)
  let o = Interp.run p in
  let profile = Option.get o.Interp.path_profile in
  let hot = ref [] in
  Path_profile.iter_routines profile (fun name t ->
      Path_profile.iter t (fun path _ -> hot := (name, path) :: !hot));
  let hot = List.sort compare !hot in
  let _, s1 = Superblock.form p ~hot_paths:hot in
  let _, s2 = Superblock.form p ~hot_paths:hot in
  Alcotest.(check (list string))
    "decision keys stable across runs"
    (List.map Decision.key s1.Superblock.decisions)
    (List.map Decision.key s2.Superblock.decisions)

(* [path_weights] feeds only the decision log's weight field; the
   transformed program is a pure function of the program and the paths. *)
let prop_path_weights_never_affect_transform =
  QCheck.Test.make ~name:"path_weights never affect the transformation"
    ~count:40
    QCheck.(pair small_int small_int)
    (fun (seed, wseed) ->
      let p = Ppp_workloads.Gen.program ~seed in
      let _, hot = hottest_paths p in
      let weights =
        List.mapi
          (fun i (name, _) -> (name, ((wseed + 1) * (i + 13)) mod 100_000))
          hot
      in
      let p1, s1 = Superblock.form p ~hot_paths:hot in
      let p2, s2 = Superblock.form p ~path_weights:weights ~hot_paths:hot in
      p1 = p2
      && s1.Superblock.routines_optimized = s2.Superblock.routines_optimized
      && s1.Superblock.touched = s2.Superblock.touched
      && List.map Decision.key s1.Superblock.decisions
         = List.map Decision.key s2.Superblock.decisions)

(* Salvaging a pre-straightening profile onto the straightened program
   through the stale matcher never raises and never invents mass. *)
let prop_salvage_never_raises_conserves_mass =
  QCheck.Test.make
    ~name:"stale salvage onto the straightened program conserves mass"
    ~count:40
    QCheck.(small_int)
    (fun seed ->
      let p = Ppp_workloads.Gen.program ~seed in
      let o, hot = hottest_paths p in
      let p', _ = Superblock.form p ~hot_paths:hot in
      let dump =
        Format.asprintf "%t" (fun ppf ->
            Profile_io.save ?edges:o.Interp.edge_profile
              ?paths:o.Interp.path_profile ppf p)
      in
      let path_mass profile =
        let total = ref 0 in
        Path_profile.iter_routines profile (fun _ t ->
            Path_profile.iter t (fun _ n -> total := !total + n));
        !total
      in
      let original_mass =
        match o.Interp.path_profile with Some pp -> path_mass pp | None -> 0
      in
      match Profile_io.load p' dump with
      | Error ds -> ds <> [] (* rejection must carry diagnostics *)
      | Ok loaded ->
          let f = loaded.Profile_io.matched_fraction in
          f >= 0.0 && f <= 1.0
          && path_mass loaded.Profile_io.paths <= original_mass)

(* End to end: feed the pre-straightening profile of a workload through
   save / stale-load / prepare ~profile with superblocks on — the
   pipeline must absorb the salvaged profile without raising and produce
   a program with unchanged outcomes. *)
let test_salvaged_profile_closes_loop () =
  let name = "twolf" in
  let p = (Ppp_workloads.Spec.find name).Ppp_workloads.Spec.build ~scale:1 in
  let o, hot = hottest_paths p in
  let p', _ = Superblock.form p ~hot_paths:hot in
  let dump =
    Format.asprintf "%t" (fun ppf ->
        Profile_io.save ?edges:o.Interp.edge_profile
          ?paths:o.Interp.path_profile ppf p)
  in
  match Profile_io.load p' dump with
  | Error ds ->
      Alcotest.failf "salvage rejected: %a" Ppp_resilience.Diagnostic.pp_list ds
  | Ok loaded ->
      let prep = H.prepare ~flags:sb_flags ~profile:loaded ~name p' in
      let o' = Interp.run prep.H.optimized in
      check_bool "output preserved through the salvaged loop" true
        (o'.Interp.output = o.Interp.output
        && o'.Interp.return_value = o.Interp.return_value)

let suite =
  [
    Alcotest.test_case "preserves and speeds" `Slow test_superblock_preserves_and_speeds;
    Alcotest.test_case "empty hot paths" `Quick test_superblock_empty_paths;
    Alcotest.test_case "staged optimizer loop" `Slow test_staged_loop;
    Alcotest.test_case "reoptimize dirties straightened routines" `Slow
      test_reoptimize_dirties_straightened;
    Alcotest.test_case "iterate-N equals N manual round-trips" `Slow
      test_iterate_equals_manual_roundtrips;
    Alcotest.test_case "stale hot path becomes a mismatch" `Quick
      test_stale_path_mismatch;
    Alcotest.test_case "salvaged profile closes the loop" `Slow
      test_salvaged_profile_closes_loop;
    QCheck_alcotest.to_alcotest prop_superblock_preserves_output;
    QCheck_alcotest.to_alcotest prop_superblock_never_slower;
    QCheck_alcotest.to_alcotest prop_path_weights_never_affect_transform;
    QCheck_alcotest.to_alcotest prop_salvage_never_raises_conserves_mass;
  ]
