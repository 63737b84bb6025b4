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

(* A dump holding one section with a valid checksum. *)
let section kind payload =
  let body = String.concat "\n" payload in
  Printf.sprintf "ppp-profile v2\nsection %s crc=%s lines=%d\n%s\nend\n" kind
    (Crc.to_hex (Crc.string body))
    (List.length payload) body

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
  expect_diag (section "edges" [ "e0 5" ]); (* counter before routine header *)
  expect_diag (section "edges" [ "routine nonexistent"; "e0 5" ]);
  expect_diag (section "edges" [ "routine main"; "bogus line here" ]);
  expect_diag (section "paths" [ "routine main"; "not-a-number : 0 1" ])

(* An unknown routine's diagnostic points at the line of its header. *)
let test_unknown_routine_is_located () =
  let p = Ppp_workloads.Gen.program ~seed:1 in
  let text = section "edges" [ "routine nonexistent"; "e0 5" ] in
  let diags =
    match Profile_io.load p text with
    | Ok l -> l.Profile_io.diagnostics
    | Error ds -> ds
  in
  match
    List.filter
      (fun d -> d.Ppp_resilience.Diagnostic.kind = Unknown_routine)
      diags
  with
  | [ d ] ->
      Alcotest.(check (option int)) "line" (Some 3) d.Ppp_resilience.Diagnostic.line;
      Alcotest.(check (option string)) "token" (Some "nonexistent")
        d.Ppp_resilience.Diagnostic.token
  | ds -> Alcotest.failf "expected one unknown-routine diagnostic, got %d" (List.length ds)

(* Loading across a CFG change accounts for every count: what is not
   salvaged is dropped, and the matched fraction is their ratio. *)
let test_load_conserves_mass () =
  let programs = Array.init 61 (fun seed -> Ppp_workloads.Gen.program ~seed) in
  let partial = ref 0 in
  for s = 0 to 59 do
    let dump = dump_v2 programs.(s) (Interp.run programs.(s)) in
    match Profile_io.load programs.(s + 1) dump with
    | Error _ -> ()
    | Ok l ->
        if l.Profile_io.dropped_counts > 0 then incr partial;
        let salvaged = l.Profile_io.salvaged_counts in
        let total = salvaged + l.Profile_io.dropped_counts in
        Alcotest.(check int)
          (Printf.sprintf "seed %d: salvaged + dropped = dump mass" s)
          (Profile_io.Raw.mass (Profile_io.Raw.parse dump))
          total;
        check_bool
          (Printf.sprintf "seed %d: matched fraction is salvaged / total" s)
          true
          (l.Profile_io.matched_fraction
          = if total = 0 then 1.0
            else float_of_int salvaged /. float_of_int total)
  done;
  check_bool "some loads salvaged only part of the mass" true (!partial > 0)

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

(* 4,096 distinct 28-edge paths sharing a 16-edge prefix: the
   polymorphic hash reads only the prefix and puts them all in one
   bucket; the path hash must spread them. *)
let test_path_hash_spreads () =
  let prefix = List.init 16 (fun i -> 3 * i) in
  let paths =
    List.init 4096 (fun k ->
        prefix @ List.init 12 (fun b -> 100 + (2 * b) + ((k lsr b) land 1)))
  in
  let tbl = Ppp_profile.Path.Tbl.create 64 in
  List.iter (fun p -> Ppp_profile.Path.Tbl.replace tbl p ()) paths;
  Alcotest.(check int) "distinct" 4096 (Ppp_profile.Path.Tbl.length tbl);
  let longest = (Ppp_profile.Path.Tbl.stats tbl).Hashtbl.max_bucket_length in
  check_bool (Printf.sprintf "longest bucket %d <= 16" longest) true (longest <= 16);
  let poly = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace poly p ()) paths;
  Alcotest.(check int) "the polymorphic hash collides them all" 4096
    (Hashtbl.stats poly).Hashtbl.max_bucket_length

(* {2 The hand-off without text: [of_raw p raw = load p (Raw.to_string raw)]} *)

module Diagnostic = Ppp_resilience.Diagnostic
module Raw = Profile_io.Raw

(* Everything a load result holds, in iteration order: each routine's
   edge counters, and its paths in the order its table iterates them.
   An [Unknown_routine] verdict loses its line, the one thing only text
   can locate. *)
let observed p result =
  let unlocated =
    List.map (fun (d : Diagnostic.t) ->
        if d.Diagnostic.kind = Diagnostic.Unknown_routine then
          { d with Diagnostic.line = None }
        else d)
  in
  match result with
  | Error ds -> Error (unlocated ds)
  | Ok (l : Profile_io.loaded) ->
      let edges =
        List.map
          (fun (r : Ir.routine) ->
            let t = Edge_profile.routine l.Profile_io.edges r.Ir.name in
            let g = Ppp_ir.Cfg_view.graph (Ppp_ir.Cfg_view.of_routine r) in
            let acc = ref [] in
            Ppp_cfg.Graph.iter_edges g (fun e ->
                acc := Edge_profile.freq t e :: !acc);
            (r.Ir.name, List.rev !acc))
          p.Ir.routines
      in
      let paths = ref [] in
      Path_profile.iter_routines l.Profile_io.paths (fun name t ->
          let acc = ref [] in
          Path_profile.iter t (fun path n -> acc := (path, n) :: !acc);
          paths := (name, List.rev !acc) :: !paths);
      Ok
        ( edges,
          List.rev !paths,
          unlocated l.Profile_io.diagnostics,
          ( l.Profile_io.matched_fraction,
            l.Profile_io.stale_routines,
            l.Profile_io.salvaged_counts,
            l.Profile_io.dropped_counts ) )

let check_of_raw what p raw =
  check_bool
    (what ^ ": of_raw = load of the text")
    true
    (observed p (Profile_io.of_raw p raw)
    = observed p (Profile_io.load p (Raw.to_string raw)))

let raw_of_run p =
  let o = Interp.run p in
  Raw.of_program ?edges:o.Interp.edge_profile ?paths:o.Interp.path_profile p

let test_of_raw_workloads () =
  List.iter
    (fun (b : Ppp_workloads.Spec.bench) ->
      let p = b.Ppp_workloads.Spec.build ~scale:1 in
      check_of_raw b.Ppp_workloads.Spec.bench_name p (raw_of_run p))
    Ppp_workloads.Spec.all

(* A dump of program [s] applied to program [s+1]: stale salvage, and
   routines the newer program no longer has. *)
let test_of_raw_stale () =
  let programs = Array.init 41 (fun seed -> Ppp_workloads.Gen.program ~seed) in
  let unknown = ref 0 and stale = ref 0 in
  for s = 0 to 39 do
    let raw = raw_of_run programs.(s) in
    check_of_raw
      (Printf.sprintf "seed %d -> %d" s (s + 1))
      programs.(s + 1) raw;
    match Profile_io.of_raw programs.(s + 1) raw with
    | Error ds | Ok { Profile_io.diagnostics = ds; _ } ->
        List.iter
          (fun (d : Diagnostic.t) ->
            match d.Diagnostic.kind with
            | Diagnostic.Unknown_routine -> incr unknown
            | Diagnostic.Stale -> incr stale
            | _ -> ())
          ds
  done;
  check_bool "some routines were unknown" true (!unknown > 0);
  check_bool "some routines were stale" true (!stale > 0);
  (* Edge counts from one program and path counts from another: the
     text heads the routines with edge counts first. *)
  for s = 0 to 19 do
    let o = Interp.run programs.(s) and o' = Interp.run programs.(s + 1) in
    let raw =
      Raw.merge
        [ Raw.of_program ?paths:o.Interp.path_profile programs.(s);
          Raw.of_program ?edges:o'.Interp.edge_profile programs.(s + 1) ]
    in
    check_of_raw (Printf.sprintf "paths of %d, edges of %d" s (s + 1))
      programs.(s + 1) raw
  done

(* Decayed merges of dumps from different builds carry lost mass,
   decayed-away counts and Stale diagnostics, none of which the text
   holds. *)
let test_of_raw_merge_decayed () =
  let bzip2 = Option.get (Ppp_workloads.Spec.find_opt "bzip2") in
  let builds =
    List.map (fun scale -> bzip2.Ppp_workloads.Spec.build ~scale) [ 1; 2; 3 ]
  in
  List.iter
    (fun decay ->
      let merged = Raw.merge_decayed ~decay (List.map raw_of_run builds) in
      if decay < 1.0 then
        check_bool "the merge decayed mass away" true (Raw.lost merged > 0);
      check_bool "the merge has diagnostics" true (Raw.diagnostics merged <> []);
      List.iteri
        (fun i p ->
          check_of_raw (Printf.sprintf "decay %g onto build %d" decay i) p merged)
        builds)
    [ 0.5; 0.9; 1.0 ];
  let gens =
    Array.init 6 (fun seed -> Ppp_workloads.Gen.program ~seed:(100 + seed))
  in
  let merged =
    Raw.merge_decayed ~decay:0.7 (Array.to_list (Array.map raw_of_run gens))
  in
  check_bool "the generated merge lost mass" true (Raw.lost merged > 0);
  Array.iteri
    (fun i p ->
      check_of_raw (Printf.sprintf "generated merge onto %d" i) p merged)
    gens

(* The canonical writer as it stood when each line went through
   [Format] with a flush: kept here so the one-buffer writer is held to
   the same bytes. *)
let format_writer raw =
  let module Raw = Profile_io.Raw in
  let module Fp = Ppp_resilience.Fingerprint in
  let module Sm = Ppp_resilience.Stale_match in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "ppp-profile v2@.";
  let names = Raw.routines raw in
  List.iter
    (fun name ->
      match Raw.desc raw name with
      | None -> ()
      | Some d ->
          Format.fprintf ppf "cfg routine=%s fp=%s blocks=%d edges=%d@." name
            (Fp.to_hex d.Sm.fingerprint) (Array.length d.Sm.strict)
            (Array.length d.Sm.edges);
          Array.iteri
            (fun i lbl ->
              Format.fprintf ppf "b %s %s %s@." lbl (Fp.to_hex d.Sm.strict.(i))
                (Fp.to_hex d.Sm.loose.(i)))
            d.Sm.labels;
          Array.iteri
            (fun i (s, dst) -> Format.fprintf ppf "e %d %d %d@." i s dst)
            d.Sm.edges)
    names;
  let lines_of iter render =
    List.concat_map
      (fun name ->
        let acc = ref [] in
        iter raw name (fun k c -> if c > 0 then acc := (k, c) :: !acc);
        match List.sort compare !acc with
        | [] -> []
        | entries ->
            Printf.sprintf "routine %s" name
            :: List.map (fun (k, c) -> render k c) entries)
      names
  in
  let section name lines =
    Format.fprintf ppf "section %s crc=%s lines=%d@." name
      (Crc.to_hex (Crc.string (String.concat "\n" lines)))
      (List.length lines);
    List.iter (fun l -> Format.fprintf ppf "%s@." l) lines
  in
  section "edges" (lines_of Raw.iter_edges (fun id c -> Printf.sprintf "e%d %d" id c));
  section "paths"
    (lines_of Raw.iter_paths (fun path c ->
         Printf.sprintf "%d :%s" c
           (String.concat "" (List.map (fun e -> " " ^ string_of_int e) path))));
  Format.fprintf ppf "end@.";
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* The 18 workloads' exact and sampled dumps, their merges as a collect
   round makes them, a decayed merge of the two, and dumps with empty
   sections: [Raw.to_string] and [Raw.save] write the Format writer's
   bytes. *)
let test_writer_bytes () =
  let module Raw = Profile_io.Raw in
  let same label raw =
    let expected = format_writer raw in
    Alcotest.(check string) (label ^ ": to_string") expected (Raw.to_string raw);
    Alcotest.(check string) (label ^ ": save") expected
      (Format.asprintf "%a" Raw.save raw)
  in
  let per =
    List.map
      (fun (b : Ppp_workloads.Spec.bench) ->
        let name = b.Ppp_workloads.Spec.bench_name in
        let p = b.Ppp_workloads.Spec.build ~scale:1 in
        let o = Interp.run p in
        let exact =
          Raw.of_program ?edges:o.Interp.edge_profile ?paths:o.Interp.path_profile p
        in
        let sampled =
          Ppp_harness.Shard.collect_sampled
            ~spec:(Ppp_interp.Sampling.spec ~seed:42 ~denom:16 ())
            p
        in
        same (name ^ " exact") exact;
        same (name ^ " sampled") sampled;
        same (name ^ " no counts") (Raw.of_program p);
        same (name ^ " edges only") (Raw.of_program ?edges:o.Interp.edge_profile p);
        let prefixed raw = Raw.rename (fun r -> name ^ "/" ^ r) raw in
        (prefixed exact, prefixed sampled))
      Ppp_workloads.Spec.all
  in
  let exact = Raw.merge (List.map fst per) in
  let sampled = Raw.merge (List.map snd per) in
  same "merged exact" exact;
  same "merged sampled" sampled;
  same "decayed" (Raw.merge_decayed ~decay:0.5 [ exact; sampled; sampled ]);
  same "empty" (Raw.empty ())

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
    Alcotest.test_case "path hash spreads shared prefixes" `Quick
      test_path_hash_spreads;
    Alcotest.test_case "unknown routines stay located" `Quick
      test_unknown_routine_is_located;
    Alcotest.test_case "load conserves count mass across CFG changes" `Quick
      test_load_conserves_mass;
    Alcotest.test_case "of_raw loads what the text loads: workloads" `Quick
      test_of_raw_workloads;
    Alcotest.test_case "of_raw loads what the text loads: stale dumps" `Quick
      test_of_raw_stale;
    Alcotest.test_case "of_raw loads what the text loads: decayed merges"
      `Quick test_of_raw_merge_decayed;
    Alcotest.test_case "one-buffer writer = Format writer" `Quick test_writer_bytes;
  ]
