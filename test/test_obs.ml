(* Tests for the Ppp_obs observability layer: metrics registry
   semantics, JSON round-tripping, Chrome trace export, file sinks, the
   interpreter/pipeline integration hooks, and the heat-map DOT
   export. *)

module Metrics = Ppp_obs.Metrics
module Trace = Ppp_obs.Trace
module Jsonx = Ppp_obs.Jsonx
module Sink = Ppp_obs.Sink
module Interp = Ppp_interp.Interp
module Instrument = Ppp_core.Instrument
module Config = Ppp_core.Config
module H = Ppp_harness.Pipeline
module Graph = Ppp_cfg.Graph
module Dot = Ppp_cfg.Dot

let with_metrics f =
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

let program () =
  Ppp_ir.Parse.program_of_string
    {|routine main(0) regs 3 {
entry:
  r0 = 0
  jump head
head:
  r1 = r0 < 25
  br r1, body, done
body:
  r2 = r0 & 1
  br r2, odd, even
odd:
  r0 = r0 + 1
  jump head
even:
  r0 = r0 + 1
  jump head
done:
  ret r0
}|}

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_disabled_is_noop () =
  Metrics.set_enabled false;
  Metrics.reset ();
  let c = Metrics.counter "test.gate.counter" in
  let g = Metrics.gauge "test.gate.gauge" in
  let h = Metrics.histogram "test.gate.histogram" in
  Metrics.incr c;
  Metrics.add c 10;
  Metrics.set g 3.5;
  Metrics.observe h 7.0;
  let snap = Metrics.snapshot () in
  Alcotest.(check (option int))
    "counter untouched" (Some 0)
    (Metrics.counter_value snap "test.gate.counter");
  Alcotest.(check int) "value accessor" 0 (Metrics.value c)

let test_instruments_record () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "test.rec.counter" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 5;
  Alcotest.(check int) "counter" 7 (Metrics.value c);
  (* Creating the same name again returns the same instrument. *)
  Metrics.incr (Metrics.counter "test.rec.counter");
  Alcotest.(check int) "interned" 8 (Metrics.value c);
  let g = Metrics.gauge "test.rec.gauge" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Metrics.gauge_value g);
  let h = Metrics.histogram ~bounds:[| 1.0; 10.0 |] "test.rec.histogram" in
  Metrics.observe h 0.5;
  Metrics.observe h 5.0;
  Metrics.observe h 1e9;
  (match List.assoc "test.rec.histogram" (Metrics.snapshot ()) with
  | Metrics.Histogram { buckets; observations; sum; _ } ->
      Alcotest.(check int) "observations" 3 observations;
      Alcotest.(check (float 1.0)) "sum" (1e9 +. 5.5) sum;
      Alcotest.(check (array int)) "buckets" [| 1; 1; 1 |] buckets
  | _ -> Alcotest.fail "expected histogram");
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.value c)

let test_json_roundtrip () =
  let v =
    Jsonx.Obj
      [
        ("s", Jsonx.Str "quote\" back\\slash\nnewline\ttab");
        ("i", Jsonx.Int (-42));
        ("f", Jsonx.Float 1.5);
        ("big", Jsonx.Float 2.5e10);
        ("t", Jsonx.Bool true);
        ("n", Jsonx.Null);
        ("empty_arr", Jsonx.Arr []);
        ("empty_obj", Jsonx.Obj []);
        ("nested", Jsonx.Arr [ Jsonx.Int 1; Jsonx.Obj [ ("k", Jsonx.Str "v") ] ]);
      ]
  in
  let s = Jsonx.to_string v in
  let v' = Jsonx.of_string s in
  Alcotest.(check bool) "roundtrip" true (v = v');
  (* Non-finite floats degrade to null rather than emitting invalid JSON. *)
  let s2 = Jsonx.to_string (Jsonx.Arr [ Jsonx.Float Float.infinity ]) in
  Alcotest.(check bool) "inf -> null" true (Jsonx.of_string s2 = Jsonx.Arr [ Jsonx.Null ]);
  match Jsonx.of_string "{broken" with
  | exception Jsonx.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

(* {2 The JSON codec against its previous implementation}

   [Oracle] is the [Format]-based printer and the option-per-byte parser
   that [Jsonx] replaced, kept verbatim but for one line: [\u0080] to
   [\u00ff] decode to their byte (the old parser turned them into ['?'],
   though its own printer writes every byte above 0x7e that way). *)
module Oracle = struct
  open Jsonx

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let pp_float ppf f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Format.fprintf ppf "%.1f" f
    else if Float.is_finite f then Format.fprintf ppf "%.12g" f
    else Format.pp_print_string ppf "null"

  let rec pp ppf = function
    | Null -> Format.pp_print_string ppf "null"
    | Bool b -> Format.pp_print_string ppf (if b then "true" else "false")
    | Int i -> Format.pp_print_int ppf i
    | Float f -> pp_float ppf f
    | Str s -> Format.fprintf ppf "\"%s\"" (escape s)
    | Arr [] -> Format.pp_print_string ppf "[]"
    | Arr l ->
        Format.pp_print_char ppf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Format.pp_print_char ppf ',';
            pp ppf v)
          l;
        Format.pp_print_char ppf ']'
    | Obj [] -> Format.pp_print_string ppf "{}"
    | Obj fields ->
        Format.pp_print_char ppf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Format.pp_print_char ppf ',';
            Format.fprintf ppf "\"%s\":" (escape k);
            pp ppf v)
          fields;
        Format.pp_print_char ppf '}'

  let to_string v = Format.asprintf "%a" pp v

  type parser_state = { src : string; mutable pos : int }

  let fail st msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

  let peek st =
    if st.pos < String.length st.src then Some st.src.[st.pos] else None

  let advance st = st.pos <- st.pos + 1

  let rec skip_ws st =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        skip_ws st
    | _ -> ()

  let expect st c =
    match peek st with
    | Some c' when c' = c -> advance st
    | _ -> fail st (Printf.sprintf "expected %C" c)

  let literal st word value =
    let n = String.length word in
    if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
    then begin
      st.pos <- st.pos + n;
      value
    end
    else fail st (Printf.sprintf "expected %s" word)

  let parse_string st =
    expect st '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek st with
      | None -> fail st "unterminated string"
      | Some '"' -> advance st
      | Some '\\' -> (
          advance st;
          match peek st with
          | None -> fail st "unterminated escape"
          | Some c ->
              advance st;
              (match c with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | 'u' ->
                  if st.pos + 4 > String.length st.src then
                    fail st "truncated \\u escape";
                  let hex = String.sub st.src st.pos 4 in
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with _ -> fail st "bad \\u escape"
                  in
                  st.pos <- st.pos + 4;
                  (* The one change: was [code < 0x80]. *)
                  if code < 0x100 then Buffer.add_char b (Char.chr code)
                  else Buffer.add_char b '?'
              | _ -> fail st "unknown escape");
              loop ())
      | Some c ->
          advance st;
          Buffer.add_char b c;
          loop ()
    in
    loop ();
    Buffer.contents b

  let parse_number st =
    let start = st.pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while match peek st with Some c -> is_num_char c | None -> false do
      advance st
    done;
    let text = String.sub st.src start (st.pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail st "malformed number")

  let rec parse_value st =
    skip_ws st;
    match peek st with
    | None -> fail st "unexpected end of input"
    | Some '"' -> Str (parse_string st)
    | Some '{' ->
        advance st;
        skip_ws st;
        if peek st = Some '}' then begin
          advance st;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws st;
            let key = parse_string st in
            skip_ws st;
            expect st ':';
            let v = parse_value st in
            fields := (key, v) :: !fields;
            skip_ws st;
            match peek st with
            | Some ',' ->
                advance st;
                fields_loop ()
            | Some '}' -> advance st
            | _ -> fail st "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance st;
        skip_ws st;
        if peek st = Some ']' then begin
          advance st;
          Arr []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value st in
            items := v :: !items;
            skip_ws st;
            match peek st with
            | Some ',' ->
                advance st;
                items_loop ()
            | Some ']' -> advance st
            | _ -> fail st "expected ',' or ']'"
          in
          items_loop ();
          Arr (List.rev !items)
        end
    | Some 't' -> literal st "true" (Bool true)
    | Some 'f' -> literal st "false" (Bool false)
    | Some 'n' -> literal st "null" Null
    | Some ('-' | '0' .. '9') -> parse_number st
    | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

  let of_string s =
    let st = { src = s; pos = 0 } in
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then fail st "trailing garbage";
    v
end

(* Arbitrary documents: strings over every byte, floats with their
   special and boundary values, nesting a few levels deep. *)
let json_gen =
  let open QCheck.Gen in
  let bytes n = string_size ~gen:char (0 -- n) in
  let float_gen =
    oneof
      [ float;
        oneofl
          [ 0.; -0.; 1.; -2.5; 0.1; 1e15; -1e15; 999999999999999.; 1e-7;
            Float.nan; Float.infinity; Float.neg_infinity; Float.max_float;
            Float.min_float; 123456789012.345 ] ]
  in
  let leaf =
    frequency
      [ (1, return Jsonx.Null);
        (1, map (fun b -> Jsonx.Bool b) bool);
        (2, map (fun i -> Jsonx.Int i) (oneof [ int; small_signed_int ]));
        (2, map (fun f -> Jsonx.Float f) float_gen);
        (3, map (fun s -> Jsonx.Str s) (bytes 24)) ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [ (3, leaf);
               (1, map (fun l -> Jsonx.Arr l) (list_size (0 -- 4) (self (n / 3))));
               ( 1,
                 map
                   (fun l -> Jsonx.Obj l)
                   (list_size (0 -- 4) (pair (bytes 8) (self (n / 3)))) ) ])

let json_arb = QCheck.make ~print:Oracle.to_string json_gen

let parse_with f s =
  match f s with v -> Ok v | exception Jsonx.Parse_error msg -> Error msg

let prop_json_prints_as_before =
  QCheck.Test.make ~count:1000 ~name:"json: to_string equals the Format printer"
    json_arb (fun v -> Jsonx.to_string v = Oracle.to_string v)

(* The same value, or the same message with the same offset, on printed
   text and on every single-byte deletion from it. *)
let prop_json_parses_as_before =
  QCheck.Test.make ~count:300
    ~name:"json: of_string equals the old parser, deletions included" json_arb
    (fun v ->
      let text = Jsonx.to_string v in
      let agrees s = parse_with Jsonx.of_string s = parse_with Oracle.of_string s in
      agrees text
      && List.for_all
           (fun i ->
             agrees
               (String.sub text 0 i
               ^ String.sub text (i + 1) (String.length text - i - 1)))
           (List.init (String.length text) Fun.id))

let prop_json_strings_round_trip =
  QCheck.Test.make ~count:1000 ~name:"json: any byte string round-trips"
    QCheck.string (fun s ->
      Jsonx.of_string (Jsonx.to_string (Jsonx.Str s)) = Jsonx.Str s)

let test_json_errors () =
  List.iter
    (fun (text, msg) ->
      Alcotest.(check (result reject string))
        (Printf.sprintf "%S" text) (Error msg)
        (Result.map ignore (parse_with Jsonx.of_string text)))
    [ ("", "unexpected end of input at offset 0");
      ("\"abc", "unterminated string at offset 4");
      ("\"a\\", "unterminated escape at offset 3");
      ("\"\\u12", "truncated \\u escape at offset 3");
      ("\"\\uzz00\"", "bad \\u escape at offset 3");
      ("\"\\q\"", "unknown escape at offset 3");
      ("[1 2]", "expected ',' or ']' at offset 3");
      ("{\"a\":1;", "expected ',' or '}' at offset 6");
      ("{\"a\" 1}", "expected ':' at offset 5");
      ("tru", "expected true at offset 0");
      ("-", "malformed number at offset 1");
      ("1 x", "trailing garbage at offset 2");
      ("@", "unexpected character '@' at offset 0") ];
  Alcotest.(check bool) "\\u00ff decodes to its byte" true
    (Jsonx.of_string "\"\\u00ff\\u0080\\u0100\"" = Jsonx.Str "\xff\x80?")

let test_interp_counters_match_outcome () =
  with_metrics @@ fun () ->
  let o = Interp.run (program ()) in
  let snap = Metrics.snapshot () in
  Alcotest.(check (option int))
    "dyn_instrs" (Some o.Interp.dyn_instrs)
    (Metrics.counter_value snap "interp.dyn_instrs");
  Alcotest.(check (option int))
    "dyn_paths" (Some o.Interp.dyn_paths)
    (Metrics.counter_value snap "interp.dyn_paths");
  Alcotest.(check (option int))
    "base_cost" (Some o.Interp.base_cost)
    (Metrics.counter_value snap "interp.base_cost");
  Alcotest.(check (option int))
    "fuel" (Some o.Interp.dyn_instrs)
    (Metrics.counter_value snap "interp.fuel_consumed");
  Alcotest.(check (option int))
    "runs" (Some 1)
    (Metrics.counter_value snap "interp.runs")

let test_instrumented_run_counters () =
  let p = program () in
  let ep = Option.get (Interp.run p).Interp.edge_profile in
  let inst = Instrument.instrument p ep Config.pp in
  with_metrics @@ fun () ->
  let o =
    Interp.run
      ~config:
        { Interp.default_config with instrumentation = Some inst.Instrument.rt }
      p
  in
  let snap = Metrics.snapshot () in
  Alcotest.(check (option int))
    "instr_cost matches" (Some o.Interp.instr_cost)
    (Metrics.counter_value snap "interp.instr_cost");
  let counter name = Option.get (Metrics.counter_value snap name) in
  let action_total =
    List.init Ppp_interp.Instr_rt.num_action_kinds (fun i ->
        counter ("interp.action." ^ Ppp_interp.Instr_rt.action_kind_name i))
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check bool) "actions executed" true (action_total > 0);
  Alcotest.(check bool) "table bumped" true
    (counter "rt.array.bumps" + counter "rt.hash.bumps" > 0)

(* Spans are the only record of a preparation's phase times: each phase
   of both preparations has one. *)
let test_trace_spans_pipeline () =
  Trace.start ();
  let prep = H.prepare_unoptimized ~name:"obs-test" (program ()) in
  let _ev = H.evaluate prep Config.ppp in
  ignore (H.prepare ~name:"obs-test" (program ()));
  Trace.stop ();
  let events = Trace.events () in
  let names = List.map (fun (e : Trace.event) -> e.Trace.name) events in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s present" expected)
        true (List.mem expected names))
    [ "prepare"; "edge-profile"; "evaluate"; "instrument"; "overhead-run"; "score";
      "inline"; "re-profile"; "unroll"; "base-run" ];
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check bool) "non-negative duration" true (e.Trace.dur_us >= 0.0))
    events;
  (* The export is valid JSON in Chrome trace-event shape: an object with
     a traceEvents array of complete ("X") or instant ("i") events. *)
  let json = Jsonx.of_string (Jsonx.to_string (Trace.to_json ())) in
  let trace_events = Jsonx.to_list (Option.get (Jsonx.member json "traceEvents")) in
  Alcotest.(check int) "all events exported" (List.length events)
    (List.length trace_events);
  List.iter
    (fun ev ->
      (match Jsonx.member ev "ph" with
      | Some (Jsonx.Str ("X" | "i")) -> ()
      | _ -> Alcotest.fail "event is not complete/instant");
      (match Jsonx.member ev "ts" with
      | Some (Jsonx.Float _ | Jsonx.Int _) -> ()
      | _ -> Alcotest.fail "event lacks a timestamp");
      match Jsonx.member ev "name" with
      | Some (Jsonx.Str _) -> ()
      | _ -> Alcotest.fail "event lacks a name")
    trace_events

(* Observability changes no result: a cold [--iterate 3] request, plain
   and in drift mode, computes the same generations and the same daemon
   reply with traces and metrics on as with them off, and the trace
   names every phase of the loop and of the request. *)
let test_obs_on_off_cold_request () =
  let module Ops = Ppp_daemon.Ops in
  let p = (Ppp_workloads.Spec.find "bzip2").Ppp_workloads.Spec.build ~scale:1 in
  let program = Ppp_ir.Pp_ir.to_string p in
  let summary gens =
    List.map
      (fun (g : H.generation) ->
        ( (g.H.gen, g.H.dirty, g.H.reinstrumented, g.H.reused_plans),
          (g.H.matched_fraction, g.H.instr_overhead, g.H.decisions),
          Ppp_ir.Pp_ir.to_string g.H.prep.H.optimized ))
      gens
  in
  let loops () =
    ( summary (H.reoptimize ~iterations:3 ~name:"obs" p),
      summary
        (H.reoptimize ~iterations:3 ~name:"obs"
           ~sampling:(Ppp_interp.Sampling.spec ~seed:3 ~denom:8 ())
           ~decay:0.5 p) )
  in
  let plans =
    match
      Ops.handle ~chaos:false
        (Ops.Opt
           { name = "obs-plans"; program; profile = None; iterate = 3;
             plans = None })
    with
    | Ops.Okay { meta; _ } -> (
        match List.assoc_opt "plans" meta with
        | Some (Jsonx.Str hex) -> hex
        | _ -> Alcotest.fail "no plans in the reply")
    | Ops.Failed _ -> Alcotest.fail "opt failed"
  in
  let request name =
    Ops.encode_reply
      (Ops.handle ~chaos:false
         (Ops.Opt { name; program; profile = None; iterate = 3; plans = Some plans }))
  in
  let loops_off = loops () and reply_off = request "obs-off" in
  Metrics.set_enabled true;
  Metrics.reset ();
  Trace.start ();
  let loops_on, reply_on =
    Fun.protect
      ~finally:(fun () ->
        Trace.stop ();
        Metrics.set_enabled false)
      (fun () ->
        let l = loops () in
        (l, request "obs-on"))
  in
  Alcotest.(check bool) "generations identical with observability on" true
    (loops_on = loops_off);
  Alcotest.(check string) "reply identical with observability on" reply_off
    reply_on;
  let names = List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events ()) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s present" expected)
        true (List.mem expected names))
    [ "prepare"; "prepare-with-profile"; "edge-profile"; "inline"; "re-profile";
      "unroll"; "base-run"; "profile-handoff"; "reinstrument";
      "instrumented-run"; "decisions"; "plan-import"; "plan-export";
      "print-program" ]

(* With superblocks on, a generation that prepares from the previous
   one's profile straightens its hot traces and re-profiles the changed
   program, each under its own span. *)
let test_trace_spans_superblocks () =
  let p = (Ppp_workloads.Spec.find "mcf").Ppp_workloads.Spec.build ~scale:1 in
  Trace.start ();
  let gens =
    Fun.protect ~finally:Trace.stop (fun () ->
        H.reoptimize
          ~flags:{ H.default_flags with H.superblocks = true; layout = true }
          ~iterations:2 ~name:"obs-sb" p)
  in
  Alcotest.(check bool) "generation 2 straightened a trace" true
    ((List.nth gens 1).H.prep.H.superblock_stats.Ppp_opt.Superblock.touched <> []);
  let names = List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events ()) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s present" expected)
        true (List.mem expected names))
    [ "prepare-with-profile"; "superblock"; "sb-profile" ]

let test_metrics_sink_files () =
  with_metrics @@ fun () ->
  let o = Interp.run (program ()) in
  let snap = Metrics.snapshot () in
  let json_path = Filename.temp_file "ppp_metrics" ".json" in
  let csv_path = Filename.temp_file "ppp_metrics" ".csv" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove json_path;
      Sys.remove csv_path)
    (fun () ->
      Sink.write_metrics_json ~path:json_path snap;
      Sink.write_metrics_csv ~path:csv_path snap;
      let json = Jsonx.of_string (read_file json_path) in
      let metrics = Option.get (Jsonx.member json "metrics") in
      (match Jsonx.member (Option.get (Jsonx.member metrics "interp.dyn_instrs")) "value" with
      | Some (Jsonx.Int n) ->
          Alcotest.(check int) "snapshot value in file" o.Interp.dyn_instrs n
      | _ -> Alcotest.fail "interp.dyn_instrs missing from JSON sink");
      let csv = read_file csv_path in
      Alcotest.(check bool) "csv header" true
        (String.length csv > 22 && String.sub csv 0 22 = "name,kind,value,detail"))

let test_empty_trace_file_is_valid () =
  Trace.start ();
  Trace.stop ();
  let path = Filename.temp_file "ppp_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write_file path;
      let json = Jsonx.of_string (read_file path) in
      Alcotest.(check int) "no events" 0
        (List.length (Jsonx.to_list (Option.get (Jsonx.member json "traceEvents")))))

let test_heat_dot () =
  let g = Graph.create () in
  Graph.add_nodes g 3;
  let e0 = Graph.add_edge g 0 1 in
  let e1 = Graph.add_edge g 1 2 in
  let e2 = Graph.add_edge g 0 2 in
  let freq e = if e = e0 then 100 else if e = e1 then 1 else 0 in
  ignore e2;
  let s =
    Format.asprintf "%a"
      (fun ppf -> Dot.pp_heat ~name:"heat" ~freq ~total:10_000 ppf)
      g
  in
  let has sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (* 100/10000 = 1% >= 0.125%: hot; 1/10000: cold; 0: never executed. *)
  Alcotest.(check bool) "hot edge red" true (has "color=\"red\"");
  Alcotest.(check bool) "cold edge blue" true (has "color=\"steelblue\"");
  Alcotest.(check bool) "unexecuted dashed" true (has "style=\"dashed\"");
  Alcotest.(check bool) "frequency label" true (has "label=\"100\"")

let suite =
  [
    Alcotest.test_case "disabled metrics are no-ops" `Quick test_disabled_is_noop;
    Alcotest.test_case "instruments record" `Quick test_instruments_record;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json errors keep their messages" `Quick test_json_errors;
    QCheck_alcotest.to_alcotest prop_json_prints_as_before;
    QCheck_alcotest.to_alcotest prop_json_parses_as_before;
    QCheck_alcotest.to_alcotest prop_json_strings_round_trip;
    Alcotest.test_case "interp counters match outcome" `Quick
      test_interp_counters_match_outcome;
    Alcotest.test_case "instrumented run counters" `Quick
      test_instrumented_run_counters;
    Alcotest.test_case "pipeline trace spans" `Quick test_trace_spans_pipeline;
    Alcotest.test_case "superblock phase spans" `Quick test_trace_spans_superblocks;
    Alcotest.test_case "metrics sink files" `Quick test_metrics_sink_files;
    Alcotest.test_case "empty trace file valid" `Quick
      test_empty_trace_file_is_valid;
    Alcotest.test_case "heat dot" `Quick test_heat_dot;
    Alcotest.test_case "observability on/off: a cold request" `Quick
      test_obs_on_off_cold_request;
  ]
