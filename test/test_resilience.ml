(* The resilience layer: CRC and fingerprint primitives, stale-profile
   matching, fault injection never crashing the loader, and the pipeline
   consuming a salvaged profile with degraded confidence. *)

module Ir = Ppp_ir.Ir
module Interp = Ppp_interp.Interp
module Profile_io = Ppp_profile.Profile_io
module Crc = Ppp_resilience.Crc
module Hex = Ppp_resilience.Hex
module Fingerprint = Ppp_resilience.Fingerprint
module Stale_match = Ppp_resilience.Stale_match
module Faults = Ppp_resilience.Faults
module Diagnostic = Ppp_resilience.Diagnostic
module Config = Ppp_core.Config
module H = Ppp_harness.Pipeline

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let dump_v2 p (o : Interp.outcome) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Profile_io.save ?edges:o.Interp.edge_profile ?paths:o.Interp.path_profile ppf
    p;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* {2 Primitives} *)

let test_crc_known_answer () =
  (* The CRC-32 (IEEE) check value. *)
  Alcotest.(check string) "123456789" "cbf43926" (Crc.to_hex (Crc.string "123456789"));
  check_bool "empty" true (Crc.string "" = 0l);
  check_bool "of_hex inverts" true
    (Crc.of_hex (Crc.to_hex (Crc.string "abc")) = Some (Crc.string "abc"));
  check_bool "of_hex rejects junk" true (Crc.of_hex "xyzw1234" = None);
  check_bool "of_hex rejects short" true (Crc.of_hex "12ab" = None);
  (* Chained update equals one-shot. *)
  check_bool "update chains" true
    (Crc.update (Crc.string "1234") "56789" = Crc.string "123456789")

let test_hex_codec () =
  for c = 0 to 255 do
    let s = String.make 1 (Char.chr c) in
    Alcotest.(check string)
      (Printf.sprintf "byte %d encodes as %%02x" c)
      (Printf.sprintf "%02x" c) (Hex.encode s)
  done;
  check_bool "uppercase accepted" true (Hex.decode "0AfF" = Some "\x0a\xff");
  check_bool "empty decodes" true (Hex.decode "" = Some "");
  check_bool "odd length rejected" true (Hex.decode "abc" = None);
  check_bool "underscore rejected" true (Hex.decode "1_" = None);
  for c = 0 to 255 do
    let ch = Char.chr c in
    let digit =
      (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f') || (ch >= 'A' && ch <= 'F')
    in
    if not digit then
      check_bool
        (Printf.sprintf "character %d rejected" c)
        true
        (Hex.decode (String.make 1 ch ^ "0") = None
        && Hex.decode ("0" ^ String.make 1 ch) = None)
  done

let prop_hex_roundtrip =
  QCheck.Test.make ~count:300 ~name:"hex decode inverts encode" QCheck.string
    (fun s -> Hex.decode (Hex.encode s) = Some s)

(* Bit-at-a-time reflected CRC-32, independent of the table-driven
   implementation under test. *)
let crc_reference s =
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c := Int32.logxor !c (Int32.of_int (Char.code ch));
      for _ = 0 to 7 do
        let low = Int32.logand !c 1l in
        c := Int32.shift_right_logical !c 1;
        if low <> 0l then c := Int32.logxor !c 0xEDB88320l
      done)
    s;
  Int32.logxor !c 0xFFFFFFFFl

let prop_crc_matches_reference =
  QCheck.Test.make ~count:300 ~name:"crc equals a bitwise reference, chained too"
    QCheck.(pair string string)
    (fun (a, b) ->
      Crc.string a = crc_reference a
      && Crc.update (Crc.string a) b = crc_reference (a ^ b))

(* [Crc.update] folds eight bytes per step and the rest one at a time:
   every length up to 64 covers each tail length behind zero to seven
   whole steps. *)
let test_crc_every_length () =
  check_bool "check value" true (Crc.string "123456789" = 0xCBF43926l);
  let s = String.init 64 (fun i -> Char.chr ((i * 151 + 17) land 0xff)) in
  for n = 0 to 64 do
    let prefix = String.sub s 0 n in
    check_bool (Printf.sprintf "length %d" n) true
      (Crc.string prefix = crc_reference prefix)
  done

let prop_crc_split_points =
  QCheck.Test.make ~count:300 ~name:"crc over random split points"
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (small_list small_nat))
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
      let crc, last =
        List.fold_left
          (fun (crc, from) cut -> (Crc.update crc (String.sub s from (cut - from)), cut))
          (0l, 0) cuts
      in
      Crc.update crc (String.sub s last (n - last)) = crc_reference s)

let parse src = Ppp_ir.Parse.program_of_string src

let test_fingerprint_strict_vs_loose () =
  let p1 =
    parse "routine main(0) regs 2 {\nentry:\n  r0 = 1\n  r1 = r0 + 2\n  ret r1\n}"
  in
  let p2 =
    parse "routine main(0) regs 2 {\nentry:\n  r0 = 7\n  r1 = r0 + 9\n  ret r1\n}"
  in
  let r1 = List.hd p1.Ir.routines and r2 = List.hd p2.Ir.routines in
  let b1 = r1.Ir.blocks.(0) and b2 = r2.Ir.blocks.(0) in
  check_bool "deterministic" true
    (Fingerprint.block_strict b1 = Fingerprint.block_strict b1);
  check_bool "constant tweak changes strict" true
    (Fingerprint.block_strict b1 <> Fingerprint.block_strict b2);
  check_bool "constant tweak keeps loose" true
    (Fingerprint.block_loose b1 = Fingerprint.block_loose b2);
  check_bool "routine fingerprint differs" true
    (Fingerprint.routine r1 <> Fingerprint.routine r2);
  check_bool "hex roundtrip" true
    (Fingerprint.of_hex (Fingerprint.to_hex (Fingerprint.routine r1))
    = Some (Fingerprint.routine r1))

let test_stale_match_inserted_block () =
  (* v2 of the routine gains a fresh block on the cold arm; every v1
     block still matches (by strict hash or label), and the edges along
     the surviving structure re-map. *)
  let old_r =
    List.hd
      (parse
         "routine main(0) regs 2 {\n\
          entry:\n\
         \  r0 = 10\n\
          jump head\n\
          head:\n\
         \  r1 = r0 < 5\n\
          br r1, cold, hot\n\
          cold:\n\
         \  r0 = r0 + 1\n\
          jump head\n\
          hot:\n\
         \  ret r0\n\
          }")
        .Ir.routines
  in
  let new_r =
    List.hd
      (parse
         "routine main(0) regs 2 {\n\
          entry:\n\
         \  r0 = 10\n\
          jump head\n\
          head:\n\
         \  r1 = r0 < 5\n\
          br r1, fresh, hot\n\
          fresh:\n\
         \  out r0\n\
          jump cold\n\
          cold:\n\
         \  r0 = r0 + 1\n\
          jump head\n\
          hot:\n\
         \  ret r0\n\
          }")
        .Ir.routines
  in
  let old_desc = Stale_match.describe old_r in
  let new_desc = Stale_match.describe new_r in
  let m = Stale_match.match_cfgs ~old_desc ~new_desc in
  check_int "all four old blocks matched" 4 m.Stale_match.matched_blocks;
  check_bool "entry maps to entry" true (m.Stale_match.block_map.(0) = 0);
  check_bool "some edges salvaged" true (m.Stale_match.matched_edges > 0);
  (* Identical descriptions match perfectly. *)
  let id = Stale_match.match_cfgs ~old_desc ~new_desc:old_desc in
  check_int "identity matches all blocks" 4 id.Stale_match.matched_blocks;
  check_int "identity matches all edges"
    (Array.length old_desc.Stale_match.edges)
    id.Stale_match.matched_edges

(* {2 Fault injection} *)

let test_faults_deterministic () =
  let text = "ppp-profile v2\nsection edges crc=00000000 lines=0\nend\n" in
  List.iter
    (fun fault ->
      let a = Faults.apply (Faults.rng ~seed:7) fault text in
      let b = Faults.apply (Faults.rng ~seed:7) fault text in
      check_bool (Faults.name fault ^ " deterministic") true (a = b);
      check_bool (Faults.name fault ^ " really perturbs") true (a <> text);
      check_bool "name roundtrips" true
        (Faults.of_name (Faults.name fault) = Some fault))
    Faults.all

let test_fuzzed_loads_never_raise () =
  let r = Faults.rng ~seed:42 in
  List.iter
    (fun bench ->
      let p = (Ppp_workloads.Spec.find bench).Ppp_workloads.Spec.build ~scale:1 in
      let o = Interp.run p in
      let pristine = dump_v2 p o in
      List.iter
        (fun fault ->
          (* Several perturbations per fault kind, different each time. *)
          for _ = 1 to 4 do
            let mutated = Faults.apply r fault pristine in
            match Profile_io.load p mutated with
            | Ok l ->
                check_bool
                  (bench ^ ": " ^ Faults.name fault ^ " classified")
                  true
                  (l.Profile_io.diagnostics <> [])
            | Error ds ->
                check_bool
                  (bench ^ ": " ^ Faults.name fault ^ " classified")
                  true (ds <> [])
            | exception e ->
                Alcotest.failf "%s: %s raised %s" bench (Faults.name fault)
                  (Printexc.to_string e)
          done)
        Faults.all)
    [ "vpr"; "art"; "gap" ]

(* {2 Stale profiles end to end} *)

(* Append a no-op move to one routine's entry block: semantics are
   unchanged but the strict hash (hence the fingerprint) shifts, which is
   exactly the "recompiled since the profile was collected" situation. *)
let edit_one_routine p =
  let victim =
    match
      List.find_opt
        (fun (r : Ir.routine) -> r.Ir.name <> p.Ir.main && r.Ir.nregs > 0)
        p.Ir.routines
    with
    | Some r -> r.Ir.name
    | None -> (List.hd p.Ir.routines).Ir.name
  in
  let routines =
    List.map
      (fun (r : Ir.routine) ->
        if r.Ir.name <> victim then r
        else begin
          let blocks = Array.copy r.Ir.blocks in
          let b0 = blocks.(0) in
          let reg = r.Ir.nregs - 1 in
          blocks.(0) <-
            {
              b0 with
              Ir.instrs =
                Array.append [| Ir.Mov (reg, Ir.Reg reg) |] b0.Ir.instrs;
            };
          { r with Ir.blocks = blocks }
        end)
      p.Ir.routines
  in
  ({ p with Ir.routines }, victim)

let test_stale_profile_salvaged () =
  let p = (Ppp_workloads.Spec.find "gap").Ppp_workloads.Spec.build ~scale:1 in
  let o = Interp.run p in
  let text = dump_v2 p o in
  let p', victim = edit_one_routine p in
  match Profile_io.load p' text with
  | Error ds ->
      Alcotest.failf "stale profile rejected outright: %a" Diagnostic.pp_list
        ds
  | Ok l ->
      check_bool "one routine went stale" true (l.Profile_io.stale_routines >= 1);
      check_bool "stale diagnostic names the routine" true
        (List.exists
           (fun (d : Diagnostic.t) ->
             d.Diagnostic.kind = Diagnostic.Stale
             && d.Diagnostic.routine = Some victim)
           l.Profile_io.diagnostics);
      check_bool "matched fraction positive" true
        (l.Profile_io.matched_fraction > 0.0);
      check_bool "matched fraction sane" true
        (l.Profile_io.matched_fraction <= 1.0);
      check_bool "counts were salvaged" true (l.Profile_io.salvaged_counts > 0);
      (* The salvaged profile still drives the optimizer. *)
      let prep = H.prepare_with_profile ~name:"stale-gap" ~loaded:l p' in
      check_bool "confidence tracks the matched fraction" true
        (prep.H.confidence = l.Profile_io.matched_fraction);
      check_bool "stale diagnostics carried into the pipeline" true
        (List.exists
           (fun (d : Diagnostic.t) -> d.Diagnostic.kind = Diagnostic.Stale)
           prep.H.diagnostics);
      check_bool "inlining still ran" true
        (prep.H.inline_stats.Ppp_opt.Inline.sites_inlined >= 0);
      let ev = H.evaluate prep Config.ppp in
      check_bool "evaluation completes on a salvaged profile" true
        (ev.H.accuracy >= 0.0 && ev.H.accuracy <= 1.0)

let test_truncated_profile_diagnosed () =
  let p = Ppp_workloads.Gen.program ~seed:11 in
  let o = Interp.run p in
  let text = dump_v2 p o in
  let cut = String.sub text 0 (String.length text / 2) in
  match Profile_io.load p cut with
  | Ok l ->
      check_bool "truncation diagnosed" true
        (List.exists
           (fun (d : Diagnostic.t) ->
             d.Diagnostic.kind = Diagnostic.Truncated)
           l.Profile_io.diagnostics)
  | Error ds ->
      check_bool "truncation diagnosed" true
        (List.exists
           (fun (d : Diagnostic.t) ->
             d.Diagnostic.kind = Diagnostic.Truncated)
           ds)

(* {2 Degradation} *)

let test_config_degrade () =
  let full = Config.degrade ~confidence:1.0 Config.ppp in
  check_bool "full confidence is identity" true (full = Config.ppp);
  let half = Config.degrade ~confidence:0.5 Config.ppp in
  check_bool "name marks degradation" true (half.Config.name = "ppp+degraded");
  check_bool "local ratio shrinks" true
    (half.Config.local_ratio < Config.ppp.Config.local_ratio);
  check_bool "global fraction shrinks" true
    (half.Config.global_fraction = Some 0.0005);
  check_bool "low-coverage skip rises" true
    (match (half.Config.low_coverage_skip, Config.ppp.Config.low_coverage_skip) with
    | Some d, Some o -> d > o && d <= 1.0
    | _ -> false);
  (* Out-of-range confidence is clamped, not propagated. *)
  let zero = Config.degrade ~confidence:(-3.0) Config.ppp in
  check_bool "clamped at zero" true (zero.Config.local_ratio = 0.0)

let test_fuel_exhaustion_is_an_outcome () =
  let p = (Ppp_workloads.Spec.find "mcf").Ppp_workloads.Spec.build ~scale:1 in
  let o = Interp.run ~config:{ Interp.default_config with fuel = 50 } p in
  (match o.Interp.termination with
  | Interp.Out_of_fuel { stack_depth } ->
      check_bool "stack depth reported" true (stack_depth >= 1)
  | Interp.Finished -> Alcotest.fail "expected exhaustion");
  check_bool "partial profile returned" true (o.Interp.edge_profile <> None)

let suite =
  [
    Alcotest.test_case "crc known answer" `Quick test_crc_known_answer;
    QCheck_alcotest.to_alcotest prop_crc_matches_reference;
    Alcotest.test_case "crc at every length to 64" `Quick test_crc_every_length;
    QCheck_alcotest.to_alcotest prop_crc_split_points;
    Alcotest.test_case "hex codec" `Quick test_hex_codec;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    Alcotest.test_case "fingerprint strict vs loose" `Quick
      test_fingerprint_strict_vs_loose;
    Alcotest.test_case "stale match with inserted block" `Quick
      test_stale_match_inserted_block;
    Alcotest.test_case "faults deterministic" `Quick test_faults_deterministic;
    Alcotest.test_case "fuzzed loads never raise" `Quick
      test_fuzzed_loads_never_raise;
    Alcotest.test_case "stale profile salvaged" `Quick
      test_stale_profile_salvaged;
    Alcotest.test_case "truncated profile diagnosed" `Quick
      test_truncated_profile_diagnosed;
    Alcotest.test_case "config degrade" `Quick test_config_degrade;
    Alcotest.test_case "fuel exhaustion is an outcome" `Quick
      test_fuel_exhaustion_is_an_outcome;
  ]
