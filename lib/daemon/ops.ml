module Jsonx = Ppp_obs.Jsonx
module Diagnostic = Ppp_resilience.Diagnostic
module Profile_io = Ppp_profile.Profile_io
module Interp = Ppp_interp.Interp
module Session = Ppp_session.Session
module Trace = Ppp_obs.Trace
module H = Ppp_harness.Pipeline

type request =
  | Ping
  | Collect of {
      bench : string;
      scale : int;
      sample_rate : int;  (** denominator; <= 1 collects exactly *)
      burst : int;
      sample_seed : int;
    }
  | Merge of { dumps : string list; decay : float  (** 1.0 = plain merge *) }
  | Opt of {
      name : string;
      program : string;
      profile : string option;
      iterate : int;
      plans : string option;
    }
  | Status
  | Shutdown
  | Stall of float
  | Crash

type envelope = { id : int; deadline_ms : int; req : request }

type reply =
  | Okay of { body : string; meta : (string * Jsonx.t) list }
  | Failed of { code : string; diagnostics : Diagnostic.t list }

let is_idempotent = function
  | Ping | Collect _ | Merge _ | Opt _ | Status | Shutdown -> true
  | Stall _ | Crash -> false

(* ---- codecs ------------------------------------------------------------ *)

let opt_str = function None -> Jsonx.Null | Some s -> Jsonx.Str s

let request_to_json = function
  | Ping -> Jsonx.Obj [ ("op", Jsonx.Str "ping") ]
  | Collect { bench; scale; sample_rate; burst; sample_seed } ->
      (* Sampling fields are omitted at their defaults, so requests from
         older clients and to older daemons stay wire-compatible. *)
      Jsonx.Obj
        ([ ("op", Jsonx.Str "collect"); ("bench", Jsonx.Str bench);
           ("scale", Jsonx.Int scale) ]
        @ (if sample_rate <= 1 then []
           else [ ("sample_rate", Jsonx.Int sample_rate) ])
        @ (if burst = Ppp_interp.Sampling.default_burst then []
           else [ ("burst", Jsonx.Int burst) ])
        @ if sample_seed = 0 then []
          else [ ("sample_seed", Jsonx.Int sample_seed) ])
  | Merge { dumps; decay } ->
      Jsonx.Obj
        ([ ("op", Jsonx.Str "merge");
           ("dumps", Jsonx.Arr (List.map (fun d -> Jsonx.Str d) dumps)) ]
        @ if decay >= 1.0 then [] else [ ("decay", Jsonx.Float decay) ])
  | Opt { name; program; profile; iterate; plans } ->
      Jsonx.Obj
        [ ("op", Jsonx.Str "opt"); ("name", Jsonx.Str name);
          ("program", Jsonx.Str program); ("profile", opt_str profile);
          ("iterate", Jsonx.Int iterate); ("plans", opt_str plans) ]
  | Status -> Jsonx.Obj [ ("op", Jsonx.Str "status") ]
  | Shutdown -> Jsonx.Obj [ ("op", Jsonx.Str "shutdown") ]
  | Stall s -> Jsonx.Obj [ ("op", Jsonx.Str "stall"); ("seconds", Jsonx.Float s) ]
  | Crash -> Jsonx.Obj [ ("op", Jsonx.Str "crash") ]

let encode_request { id; deadline_ms; req } =
  Jsonx.to_string
    (Jsonx.Obj
       [ ("id", Jsonx.Int id); ("deadline_ms", Jsonx.Int deadline_ms);
         ("req", request_to_json req) ])

let str_member j key =
  match Jsonx.member j key with Some (Jsonx.Str s) -> Some s | _ -> None

let int_member j key =
  match Jsonx.member j key with Some (Jsonx.Int i) -> Some i | _ -> None

let opt_str_member j key =
  match Jsonx.member j key with
  | Some (Jsonx.Str s) -> Some s
  | Some Jsonx.Null | None | Some _ -> None

let request_of_json j =
  match str_member j "op" with
  | Some "ping" -> Ok Ping
  | Some "collect" -> (
      match (str_member j "bench", int_member j "scale") with
      | Some bench, Some scale ->
          let sample_rate =
            Option.value ~default:1 (int_member j "sample_rate")
          in
          let burst =
            Option.value ~default:Ppp_interp.Sampling.default_burst
              (int_member j "burst")
          in
          let sample_seed = Option.value ~default:0 (int_member j "sample_seed") in
          if sample_rate < 1 || burst < 1 then
            Error "collect sample_rate and burst must be >= 1"
          else Ok (Collect { bench; scale; sample_rate; burst; sample_seed })
      | _ -> Error "collect needs bench and scale")
  | Some "merge" -> (
      match Jsonx.member j "dumps" with
      | Some (Jsonx.Arr items) ->
          let dumps =
            List.filter_map (function Jsonx.Str s -> Some s | _ -> None) items
          in
          let decay =
            match Jsonx.member j "decay" with
            | Some (Jsonx.Float f) -> f
            | Some (Jsonx.Int i) -> float_of_int i
            | _ -> 1.0
          in
          if List.length dumps <> List.length items then
            Error "merge dumps must be strings"
          else if not (decay > 0.0 && decay <= 1.0) then
            Error "merge decay must be in (0, 1]"
          else Ok (Merge { dumps; decay })
      | _ -> Error "merge needs a dumps array")
  | Some "opt" -> (
      match (str_member j "name", str_member j "program") with
      | Some name, Some program ->
          Ok
            (Opt
               {
                 name;
                 program;
                 profile = opt_str_member j "profile";
                 iterate =
                   (match int_member j "iterate" with Some i -> i | None -> 1);
                 plans = opt_str_member j "plans";
               })
      | _ -> Error "opt needs name and program")
  | Some "status" -> Ok Status
  | Some "shutdown" -> Ok Shutdown
  | Some "stall" -> (
      match Jsonx.member j "seconds" with
      | Some (Jsonx.Float s) -> Ok (Stall s)
      | Some (Jsonx.Int s) -> Ok (Stall (float_of_int s))
      | _ -> Error "stall needs seconds")
  | Some "crash" -> Ok Crash
  | Some op -> Error (Printf.sprintf "unknown op %S" op)
  | None -> Error "request has no op"

let decode_request payload =
  match Jsonx.of_string payload with
  | exception Jsonx.Parse_error msg -> Error ("malformed request JSON: " ^ msg)
  | j -> (
      match (int_member j "id", int_member j "deadline_ms", Jsonx.member j "req") with
      | Some id, Some deadline_ms, Some req_j -> (
          match request_of_json req_j with
          | Ok req -> Ok { id; deadline_ms; req }
          | Error e -> Error e)
      | _ -> Error "envelope needs id, deadline_ms and req")

let encode_reply = function
  | Okay { body; meta } ->
      Jsonx.to_string
        (Jsonx.Obj
           [ ("ok", Jsonx.Bool true); ("body", Jsonx.Str body);
             ("meta", Jsonx.Obj meta) ])
  | Failed { code; diagnostics } ->
      Jsonx.to_string
        (Jsonx.Obj
           [ ("ok", Jsonx.Bool false); ("code", Jsonx.Str code);
             ("diagnostics", Diagnostic.list_to_json diagnostics) ])

let decode_reply payload =
  match Jsonx.of_string payload with
  | exception Jsonx.Parse_error msg -> Error ("malformed reply JSON: " ^ msg)
  | j -> (
      match Jsonx.member j "ok" with
      | Some (Jsonx.Bool true) ->
          let body = Option.value ~default:"" (str_member j "body") in
          let meta =
            match Jsonx.member j "meta" with
            | Some (Jsonx.Obj fields) -> fields
            | _ -> []
          in
          Ok (Okay { body; meta })
      | Some (Jsonx.Bool false) ->
          let code = Option.value ~default:"error" (str_member j "code") in
          let diagnostics =
            Option.fold ~none:[] ~some:Diagnostic.list_of_json
              (Jsonx.member j "diagnostics")
          in
          Ok (Failed { code; diagnostics })
      | _ -> Error "reply has no ok field")

let served = ("served_from_store", Jsonx.Bool true)

(* [served] as it prints among an object's fields. *)
let served_text =
  let obj = Jsonx.to_string (Jsonx.Obj [ served ]) in
  String.sub obj 1 (String.length obj - 2)

let okay_prefix = {|{"ok":true,"body":"|}
let meta_open = {|,"meta":{|}

let is_at s i sub =
  i + String.length sub <= String.length s
  && String.equal (String.sub s i (String.length sub)) sub

(* The index just past the string literal whose contents start at [i]:
   its closing quote is the first one preceded by an even run of
   backslashes. *)
let rec after_string s i =
  match String.index_from_opt s i '"' with
  | None -> None
  | Some q ->
      let rec run_start k =
        if k > i && s.[k - 1] = '\\' then run_start (k - 1) else k
      in
      if (q - run_start q) land 1 = 0 then Some (q + 1)
      else after_string s (q + 1)

(* The index of the bracket that closes the container whose contents
   start at [i]. *)
let closing_bracket s i =
  let n = String.length s in
  let rec go depth i =
    if i >= n then None
    else
      match String.unsafe_get s i with
      | '"' -> Option.bind (after_string s (i + 1)) (go depth)
      | '{' | '[' -> go (depth + 1) (i + 1)
      | '}' | ']' -> if depth = 0 then Some i else go (depth - 1) (i + 1)
      | _ -> go depth (i + 1)
  in
  go 0 i

(* An encoded [Okay] reply is [{"ok":true,"body":"...","meta":{...}}]:
   [served] goes in front of meta's closing brace, the second-to-last
   byte of a complete reply. That brace is found by walking the brackets
   outside string literals, never decoding a string; only a complete
   reply closes meta right there, so a truncated one is refused. *)
let mark_served encoded =
  let n = String.length encoded in
  if not (String.starts_with ~prefix:okay_prefix encoded) then None
  else
    match after_string encoded (String.length okay_prefix) with
    | Some j when is_at encoded j meta_open -> (
        let meta = j + String.length meta_open in
        match closing_bracket encoded meta with
        | Some close when close = n - 2 && encoded.[n - 1] = '}' ->
            let field =
              if close = meta then served_text else "," ^ served_text
            in
            let f = String.length field in
            let out = Bytes.create (n + f) in
            Bytes.blit_string encoded 0 out 0 close;
            Bytes.blit_string field 0 out close f;
            Bytes.blit_string encoded close out (close + f) 2;
            Some (Bytes.unsafe_to_string out)
        | _ -> None)
    | _ -> None

(* ---- the requests both paths serve ------------------------------------- *)

let with_meta f = function
  | Okay { body; meta } -> Okay { body; meta = f meta }
  | Failed _ as failed -> failed

let ints = List.map (fun (k, v) -> (k, Jsonx.Int v))

let collect ?engine ?sampling p =
  let raw = Ppp_harness.Shard.collect_program ?engine ?sampling p in
  let meta =
    match sampling with
    | None -> []
    | Some s ->
        ints Ppp_interp.Sampling.[ ("sample_rate", s.denom); ("burst", s.burst) ]
  in
  Okay { body = Profile_io.Raw.to_string raw; meta }

let merge ~decay dumps =
  let raws = List.map Profile_io.Raw.parse dumps in
  let merged =
    if decay >= 1.0 then Profile_io.Raw.merge raws
    else Profile_io.Raw.merge_decayed ~decay raws
  in
  Okay
    {
      body = Profile_io.Raw.to_string merged;
      meta =
        ints
          [ ("dumps", List.length dumps); ("mass", Profile_io.Raw.mass merged);
            ("lost", Profile_io.Raw.lost merged) ]
        @ [ ( "diagnostics",
              Diagnostic.list_to_json (Profile_io.Raw.diagnostics merged) ) ];
    }

(* What the passes [flags] turn on did to one preparation. *)
let passes_meta (flags : H.opt_flags) (prep : H.prepared) =
  let s = prep.H.superblock_stats in
  (if flags.H.superblocks then
     [ ( "superblocks",
         Jsonx.Obj
           (ints
              Ppp_opt.Superblock.
                [ ("routines", s.routines_optimized);
                  ("blocks_duplicated", s.blocks_duplicated);
                  ("jumps_merged", s.jumps_merged);
                  ("mismatches", List.length s.mismatches) ]) ) ]
   else [])
  @
  if flags.H.layout then
    ints [ ("layout", Option.fold ~none:0 ~some:Hashtbl.length prep.H.layout) ]
  else []

let opt ?(flags = H.default_flags) ~session ?profile ~iterate ~name p =
  let print_program p =
    Trace.with_span "print-program" (fun () -> Ppp_ir.Pp_ir.to_string p)
  in
  if iterate > 1 then begin
    if Option.is_some profile then
      invalid_arg "Ops.opt: a profile drives a single generation";
    let before = Session.stats session in
    let gens = H.reoptimize ~session ~flags ~iterations:iterate ~name p in
    let after = Session.stats session in
    let gen_meta (g : H.generation) =
      Jsonx.Obj
        (ints
           [ ("gen", g.H.gen); ("dirty", List.length g.H.dirty) ]
        @ [ ("matched_fraction", Jsonx.Float g.H.matched_fraction) ]
        @ ints
            [ ("instr_cost", g.H.instr_cost);
              ("instr_base_cost", g.H.instr_base_cost) ]
        @ passes_meta flags g.H.prep)
    in
    let last = List.nth gens (List.length gens - 1) in
    Okay
      {
        body = print_program last.H.prep.H.optimized;
        meta =
          [ ("generations", Jsonx.Arr (List.map gen_meta gens));
            ( "session",
              Jsonx.Obj
                (("cache", Jsonx.Bool (Session.enabled session))
                :: ints
                    Session.
                      [ ("hits", after.hits - before.hits);
                        ("misses", after.misses - before.misses);
                        ( "invalidations",
                          after.invalidations - before.invalidations );
                        ("run_hits", after.run_hits - before.run_hits);
                        ("run_misses", after.run_misses - before.run_misses) ])
            ) ];
      }
  end
  else
    let prep = H.prepare ~session ~flags ?profile ~name p in
    let profile_meta =
      match profile with
      | None -> []
      | Some loaded ->
          Profile_io.
            [ ("matched_fraction", Jsonx.Float loaded.matched_fraction);
              ("profile_diagnostics", Diagnostic.list_to_json loaded.diagnostics);
              ("stale_routines", Jsonx.Int loaded.stale_routines);
              ("dropped_counts", Jsonx.Int loaded.dropped_counts) ]
    in
    let inl = prep.H.inline_stats and unr = prep.H.unroll_stats in
    Okay
      {
        body = print_program prep.H.optimized;
        meta =
          profile_meta
          @ ints
              Ppp_opt.Inline.
                [ ("sites_inlined", inl.sites_inlined);
                  ("dynamic_calls_inlined", inl.dynamic_calls_inlined);
                  ("dynamic_calls_total", inl.dynamic_calls_total);
                  ("loops_unrolled", unr.Ppp_opt.Unroll.loops_unrolled) ]
          @ [ ("avg_unroll_factor", Jsonx.Float unr.Ppp_opt.Unroll.avg_dynamic_factor) ]
          @ ints
              [ ("orig_base_cost", prep.H.orig_outcome.Interp.base_cost);
                ("base_cost", prep.H.base_outcome.Interp.base_cost) ]
          @ passes_meta flags prep;
      }

(* ---- rendering --------------------------------------------------------- *)

let pp_summary ?name ppf = function
  | Failed { diagnostics; _ } -> Diagnostic.pp_list ppf diagnostics
  | Okay { meta; _ } ->
      (* A field raises [Not_found] when it is missing or mistyped, and
         [each] then skips its line: a field an older server did not
         send prints nothing. *)
      let field fields key = List.assoc key fields in
      let int fields key =
        match field fields key with Jsonx.Int i -> i | _ -> raise Not_found
      in
      let num fields key =
        match field fields key with
        | Jsonx.Float f -> f
        | Jsonx.Int i -> float_of_int i
        | _ -> raise Not_found
      in
      let obj = function Jsonx.Obj o -> o | _ -> raise Not_found in
      let pct a b =
        100. *. if b = 0 then 0.0 else float_of_int a /. float_of_int b
      in
      let each f = try f () with Not_found -> () in
      let line fmt = Format.fprintf ppf (fmt ^^ "@.") in
      let diagnostics key =
        each (fun () ->
            Diagnostic.pp_list ppf (Diagnostic.list_of_json (field meta key)))
      in
      let passes fields =
        each (fun () ->
            let s = obj (field fields "superblocks") in
            line
              "superblocks: straightened %d routines (%d blocks duplicated, \
               %d jumps merged, %d hot paths no longer matched)"
              (int s "routines") (int s "blocks_duplicated")
              (int s "jumps_merged") (int s "mismatches"));
        each (fun () ->
            line "layout: %d routines laid out for fall-through"
              (int fields "layout"))
      in
      diagnostics "diagnostics";
      diagnostics "profile_diagnostics";
      each (fun () ->
          line
            "profile: %.1f%% of recorded counts matched (%d stale routines \
             salvaged, %d counts dropped)"
            (100. *. num meta "matched_fraction")
            (int meta "stale_routines") (int meta "dropped_counts"));
      each (fun () ->
          line "merged %d dumps: count mass %d, lost %d" (int meta "dumps")
            (int meta "mass") (int meta "lost"));
      each (fun () ->
          Jsonx.to_list (field meta "generations")
          |> List.iter (fun g ->
                 each (fun () ->
                     let g = obj g in
                     line
                       "gen %d: dirty %d, profile matched %.1f%%, \
                        instrumented overhead %.1f%%"
                       (int g "gen") (int g "dirty")
                       (100. *. num g "matched_fraction")
                       (pct (int g "instr_cost") (int g "instr_base_cost"));
                     passes g)));
      each (fun () ->
          let s = obj (field meta "session") in
          match (name, field s "cache") with
          | Some name, Jsonx.Bool enabled ->
              line "%a"
                (Session.pp_counts ~name ~enabled)
                { Session.hits = int s "hits"; misses = int s "misses";
                  invalidations = int s "invalidations";
                  run_hits = int s "run_hits"; run_misses = int s "run_misses" }
          | _ -> ());
      each (fun () ->
          line
            "inlined %d sites (%.0f%% of dynamic calls); unrolled %d loops \
             (avg factor %.2f); speedup %.3f"
            (int meta "sites_inlined")
            (pct (int meta "dynamic_calls_inlined") (int meta "dynamic_calls_total"))
            (int meta "loops_unrolled") (num meta "avg_unroll_factor")
            (float_of_int (int meta "orig_base_cost")
            /. float_of_int (int meta "base_cost")));
      passes meta;
      if List.assoc_opt (fst served) meta = Some (snd served) then
        line "served from the daemon store"

let print ?output ?name reply =
  (match (reply, output) with
  | Failed _, _ -> ()
  | Okay { body; _ }, Some path -> Ppp_obs.Sink.write_atomic ~path body
  | Okay { body; _ }, None ->
      print_string body;
      flush stdout);
  pp_summary ?name Format.err_formatter reply

(* ---- execution --------------------------------------------------------- *)

let fail code fmt =
  Format.kasprintf
    (fun msg ->
      Failed { code; diagnostics = [ Diagnostic.make Diagnostic.Io msg ] })
    fmt

let handle_collect ~bench ~scale ~sample_rate ~burst ~sample_seed =
  match Ppp_workloads.Spec.find_opt bench with
  | None ->
      Failed
        {
          code = "bad-request";
          diagnostics =
            [ Diagnostic.errorf Diagnostic.Unknown_routine
                "unknown benchmark %S" bench ];
        }
  | Some b ->
      let sampling =
        if sample_rate <= 1 then None
        else
          Some
            (Ppp_interp.Sampling.spec ~burst ~seed:sample_seed
               ~denom:sample_rate ())
      in
      with_meta
        (fun meta -> ("bench", Jsonx.Str bench) :: ("scale", Jsonx.Int scale) :: meta)
        (collect ?sampling (b.Ppp_workloads.Spec.build ~scale))

let handle_opt ~name ~program ~profile ~iterate =
  match Ppp_ir.Parse.program_of_string program with
  | exception Ppp_ir.Parse.Error e ->
      Failed
        {
          code = "bad-request";
          diagnostics =
            [ Diagnostic.make ~line:e.Ppp_ir.Parse.line
                ?token:e.Ppp_ir.Parse.token Diagnostic.Corrupt
                e.Ppp_ir.Parse.message ];
        }
  | exception Invalid_argument msg -> fail "bad-request" "ill-formed program: %s" msg
  | _ when iterate > 1 && profile <> None ->
      fail "bad-request" "profile cannot be combined with iterate"
  | p -> (
      let serve profile =
        opt ~session:(Session.create ~name ()) ?profile ~iterate ~name p
      in
      match profile with
      | None -> serve None
      | Some dump -> (
          match Profile_io.load p dump with
          | Error ds -> Failed { code = "bad-request"; diagnostics = ds }
          | Ok loaded -> serve (Some loaded)))

let handle ~chaos req =
  try
    match req with
    | Ping -> Okay { body = "pong"; meta = [] }
    | Collect { bench; scale; sample_rate; burst; sample_seed } ->
        handle_collect ~bench ~scale ~sample_rate ~burst ~sample_seed
    | Merge { dumps; decay } -> merge ~decay dumps
    | Opt { name; program; profile; iterate; plans = _ } ->
        handle_opt ~name ~program ~profile ~iterate
    | Status -> Okay { body = "ok"; meta = [] }
    | Shutdown -> Okay { body = "bye"; meta = [] }
    | Stall s ->
        if not chaos then fail "unsupported" "chaos ops are disabled"
        else begin
          Unix.sleepf s;
          Okay { body = "stalled"; meta = [] }
        end
    | Crash ->
        if not chaos then fail "unsupported" "chaos ops are disabled"
        else Unix._exit 42
  with
  | Interp.Runtime_error msg -> fail "error" "runtime error: %s" msg
  | Stack_overflow -> fail "error" "stack overflow while serving request"
  | Out_of_memory -> fail "error" "out of memory while serving request"
