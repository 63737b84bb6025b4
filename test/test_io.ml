(* Profile serialization and instrumentation pretty-printing. *)

module Ir = Ppp_ir.Ir
module Interp = Ppp_interp.Interp
module Edge_profile = Ppp_profile.Edge_profile
module Path_profile = Ppp_profile.Path_profile
module Profile_io = Ppp_profile.Profile_io
module Config = Ppp_core.Config
module Instrument = Ppp_core.Instrument
module Crc = Ppp_resilience.Crc

let check_bool = Alcotest.(check bool)

let profiles_equal p (ep1, pp1) (ep2, pp2) =
  List.for_all
    (fun (r : Ir.routine) ->
      let view = Ppp_ir.Cfg_view.of_routine r in
      let g = Ppp_ir.Cfg_view.graph view in
      let t1 = Edge_profile.routine ep1 r.Ir.name in
      let t2 = Edge_profile.routine ep2 r.Ir.name in
      let edges_ok = ref true in
      Ppp_cfg.Graph.iter_edges g (fun e ->
          if Edge_profile.freq t1 e <> Edge_profile.freq t2 e then edges_ok := false);
      let q1 = Path_profile.routine pp1 r.Ir.name in
      let q2 = Path_profile.routine pp2 r.Ir.name in
      let paths_ok = ref (Path_profile.num_distinct q1 = Path_profile.num_distinct q2) in
      Path_profile.iter q1 (fun path n ->
          if Path_profile.freq q2 path <> n then paths_ok := false);
      !edges_ok && !paths_ok)
    p.Ir.routines

let dump_v2 p (o : Interp.outcome) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Profile_io.save ?edges:o.Interp.edge_profile ?paths:o.Interp.path_profile ppf
    p;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let clean_roundtrip p (o : Interp.outcome) text =
  match Profile_io.load p text with
  | Error _ -> false
  | Ok l ->
      l.Profile_io.diagnostics = []
      && l.Profile_io.matched_fraction = 1.0
      && profiles_equal p
           (Option.get o.Interp.edge_profile, Option.get o.Interp.path_profile)
           (l.Profile_io.edges, l.Profile_io.paths)

let prop_profile_roundtrip =
  QCheck.Test.make ~name:"profile save/load roundtrip (v2)" ~count:40
    QCheck.(small_int)
    (fun seed ->
      let p = Ppp_workloads.Gen.program ~seed in
      let o = Interp.run p in
      clean_roundtrip p o (dump_v2 p o))

(* Every built-in workload roundtrips bit-exactly through the validated
   v2 format, plus the degenerate empty-profile and comment-heavy dumps. *)
let test_v2_roundtrip_all_benches () =
  List.iter
    (fun (b : Ppp_workloads.Spec.bench) ->
      let p = b.Ppp_workloads.Spec.build ~scale:1 in
      let o = Interp.run p in
      check_bool
        ("v2 roundtrip " ^ b.Ppp_workloads.Spec.bench_name)
        true
        (clean_roundtrip p o (dump_v2 p o)))
    Ppp_workloads.Spec.all

let test_v2_empty_profile () =
  let p = Ppp_workloads.Gen.program ~seed:3 in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Profile_io.save ppf p;
  Format.pp_print_flush ppf ();
  match Profile_io.load p (Buffer.contents buf) with
  | Error _ -> Alcotest.fail "empty v2 profile rejected"
  | Ok l ->
      check_bool "no diagnostics" true (l.Profile_io.diagnostics = []);
      check_bool "full confidence" true (l.Profile_io.matched_fraction = 1.0)

let test_v2_comment_heavy () =
  let p = Ppp_workloads.Gen.program ~seed:5 in
  let o = Interp.run p in
  (* Comments and blanks are legal between top-level v2 items (inside a
     section they would be part of the checksummed payload). *)
  let text =
    dump_v2 p o
    |> String.split_on_char '\n'
    |> List.concat_map (fun line ->
           if
             line = "end"
             || String.length line >= 4
                && (String.sub line 0 4 = "cfg " || String.sub line 0 4 = "sect")
           then [ "# comment"; ""; line ]
           else [ line ])
    |> String.concat "\n"
  in
  check_bool "comment-heavy v2 roundtrips" true (clean_roundtrip p o text)

let test_load_classifies_garbage () =
  let p = Ppp_workloads.Gen.program ~seed:1 in
  (* Bad input never raises: it comes back as classified diagnostics,
     either alongside whatever was salvaged or as an outright Error. *)
  let expect_diag text =
    match Profile_io.load p text with
    | Ok l ->
        check_bool "garbage yields a diagnostic" true
          (l.Profile_io.diagnostics <> [])
    | Error ds -> check_bool "error carries diagnostics" true (ds <> [])
    | exception e ->
        Alcotest.failf "load raised %s" (Printexc.to_string e)
  in
  (* Each bad payload line sits in a section whose checksum is valid, so
     the diagnostic classifies the line itself. *)
  let section kind payload =
    let body = String.concat "\n" payload in
    Printf.sprintf "ppp-profile v2\nsection %s crc=%s lines=%d\n%s\nend\n" kind
      (Crc.to_hex (Crc.string body))
      (List.length payload) body
  in
  expect_diag (section "edges" [ "e0 5" ]); (* counter before routine header *)
  expect_diag (section "edges" [ "routine nonexistent"; "e0 5" ]);
  expect_diag (section "edges" [ "routine main"; "bogus line here" ]);
  expect_diag (section "paths" [ "routine main"; "not-a-number : 0 1" ])

let test_load_tolerates_comments_and_blanks () =
  let p = Ppp_workloads.Gen.program ~seed:1 in
  let o = Interp.run p in
  let text = "# a comment\n\n" ^ dump_v2 p o ^ "\n# trailing\n" in
  check_bool "comments around a v2 dump are tolerated" true
    (clean_roundtrip p o text)

let test_headerless_text_is_one_error () =
  let p = Ppp_workloads.Gen.program ~seed:1 in
  List.iter
    (fun (text, line) ->
      match Profile_io.load p text with
      | Error [ d ] ->
          Alcotest.(check (option int)) "located" (Some line)
            d.Ppp_resilience.Diagnostic.line
      | Error ds ->
          Alcotest.failf "expected one diagnostic, got %d" (List.length ds)
      | Ok _ -> Alcotest.fail "headerless text accepted"
      | exception e -> Alcotest.failf "load raised %s" (Printexc.to_string e))
    [
      ("edge-profile\nroutine main\ne0 5", 1);
      ("# comment\n\nroutine main", 3);
      ("", 1);
      ("\n# only comments\n", 3);
    ]

let test_pp_plan_renders () =
  let p = (Ppp_workloads.Spec.find "gap").Ppp_workloads.Spec.build ~scale:1 in
  let o = Interp.run p in
  let ep = Option.get o.Interp.edge_profile in
  let render config =
    let inst = Instrument.instrument p ep config in
    let buf = Buffer.create 1024 in
    let ppf = Format.formatter_of_buffer buf in
    Hashtbl.iter
      (fun _ plan -> Format.fprintf ppf "%a@." Instrument.pp_plan plan)
      inst.Instrument.plans;
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let s = render Config.pp in
  check_bool "pp plan mentions counts" true
    (String.length s > 100
    &&
    let has sub =
      let n = String.length sub and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    has "count[" && has "numbered paths");
  ignore (render Config.ppp)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_profile_roundtrip;
    Alcotest.test_case "v2 roundtrip on all benches" `Quick
      test_v2_roundtrip_all_benches;
    Alcotest.test_case "v2 empty profile" `Quick test_v2_empty_profile;
    Alcotest.test_case "v2 comment-heavy" `Quick test_v2_comment_heavy;
    Alcotest.test_case "load classifies garbage" `Quick
      test_load_classifies_garbage;
    Alcotest.test_case "load tolerates comments" `Quick test_load_tolerates_comments_and_blanks;
    Alcotest.test_case "headerless text is one error" `Quick
      test_headerless_text_is_one_error;
    Alcotest.test_case "pp_plan renders" `Quick test_pp_plan_renders;
  ]
