module Jsonx = Ppp_obs.Jsonx
module Diagnostic = Ppp_resilience.Diagnostic
module Hex = Ppp_resilience.Hex
module Profile_io = Ppp_profile.Profile_io
module Interp = Ppp_interp.Interp
module Session = Ppp_session.Session
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

let kind_of_name =
  let kinds =
    Diagnostic.
      [ Corrupt; Stale; Unknown_routine; Truncated; Exhausted; Saturated;
        Shard_lost; Io; Unreachable; Deadline_exceeded; Degraded; Quarantined ]
  in
  fun name ->
    List.find_opt (fun k -> Diagnostic.kind_name k = name) kinds

let diagnostic_of_json j =
  let kind =
    match str_member j "kind" with
    | Some n -> ( match kind_of_name n with Some k -> k | None -> Diagnostic.Io)
    | None -> Diagnostic.Io
  in
  let severity =
    match str_member j "severity" with
    | Some "warning" -> Diagnostic.Warning
    | _ -> Diagnostic.Error
  in
  let line = int_member j "line" in
  let token = str_member j "token" in
  let routine = str_member j "routine" in
  let message = Option.value ~default:"" (str_member j "message") in
  Diagnostic.make ~severity ?line ?token ?routine kind message

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
            match Jsonx.member j "diagnostics" with
            | Some (Jsonx.Arr ds) -> List.map diagnostic_of_json ds
            | _ -> []
          in
          Ok (Failed { code; diagnostics })
      | _ -> Error "reply has no ok field")

(* ---- execution --------------------------------------------------------- *)

let fail code fmt =
  Format.kasprintf
    (fun msg ->
      Failed { code; diagnostics = [ Diagnostic.make Diagnostic.Io msg ] })
    fmt

(* Resident per-program-name sessions: the reason a warm daemon beats a
   cold process. Keyed by name, synced to each request's program, so an
   edited program naturally dirties only the routines it changed. *)
let sessions : (string, Session.t) Hashtbl.t = Hashtbl.create 8

let session_for name =
  match Hashtbl.find_opt sessions name with
  | Some s -> s
  | None ->
      let s = Session.create ~name () in
      Hashtbl.add sessions name s;
      s

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
      let p = b.Ppp_workloads.Spec.build ~scale in
      let body =
        if sample_rate <= 1 then
          let o = Interp.run p in
          Format.asprintf "%t" (fun ppf ->
              Profile_io.save ?edges:o.Interp.edge_profile
                ?paths:o.Interp.path_profile ppf p)
        else
          let spec =
            Ppp_interp.Sampling.spec ~burst ~seed:sample_seed
              ~denom:sample_rate ()
          in
          Profile_io.Raw.to_string (Ppp_harness.Shard.collect_sampled ~spec p)
      in
      let meta =
        [ ("bench", Jsonx.Str bench); ("scale", Jsonx.Int scale) ]
        @
        if sample_rate <= 1 then []
        else [ ("sample_rate", Jsonx.Int sample_rate); ("burst", Jsonx.Int burst) ]
      in
      Okay { body; meta }

let handle_merge ~dumps ~decay =
  let raws = List.map Profile_io.Raw.parse dumps in
  let merged =
    if decay >= 1.0 then Profile_io.Raw.merge raws
    else Profile_io.Raw.merge_decayed ~decay raws
  in
  Okay
    {
      body = Profile_io.Raw.to_string merged;
      meta =
        [ ("mass", Jsonx.Int (Profile_io.Raw.mass merged));
          ("lost", Jsonx.Int (Profile_io.Raw.lost merged));
          ( "diagnostics",
            Diagnostic.list_to_json (Profile_io.Raw.diagnostics merged) ) ];
    }

let handle_opt ~name ~program ~profile ~iterate ~plans =
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
  | p -> (
      let session = session_for name in
      let imported, import_diags =
        match plans with
        | None -> (0, [])
        | Some hex -> (
            match Hex.decode hex with
            | None ->
                (0, [ Diagnostic.make Diagnostic.Corrupt "plans field is not hex" ])
            | Some text ->
                (* import_plans fingerprint-checks every record itself,
                   but it needs the session synced to this program first. *)
                ignore (Session.sync session p);
                Session.import_plans session p text)
      in
      let finish ~optimized ~extra_meta =
        let plans_out = Session.export_plans session in
        Okay
          {
            body = optimized;
            meta =
              extra_meta
              @ [ ("plans", Jsonx.Str (Hex.encode plans_out));
                  ("plans_imported", Jsonx.Int imported);
                  ("diagnostics", Diagnostic.list_to_json import_diags) ];
          }
      in
      if iterate > 1 then begin
        if profile <> None then
          fail "bad-request" "profile cannot be combined with iterate"
        else
          let gens = H.reoptimize ~session ~iterations:iterate ~name p in
          let last = List.nth gens (List.length gens - 1) in
          let gen_meta =
            Jsonx.Arr
              (List.map
                 (fun (g : H.generation) ->
                   Jsonx.Obj
                     [ ("gen", Jsonx.Int g.H.gen);
                       ("dirty", Jsonx.Int (List.length g.H.dirty));
                       ("reinstrumented", Jsonx.Int g.H.reinstrumented);
                       ("reused_plans", Jsonx.Int g.H.reused_plans);
                       ("matched_fraction", Jsonx.Float g.H.matched_fraction) ])
                 gens)
          in
          finish
            ~optimized:(Ppp_ir.Pp_ir.to_string last.H.prep.H.optimized)
            ~extra_meta:[ ("generations", gen_meta) ]
      end
      else
        match profile with
        | None ->
            let prep = H.prepare ~session ~name p in
            finish
              ~optimized:(Ppp_ir.Pp_ir.to_string prep.H.optimized)
              ~extra_meta:[]
        | Some dump -> (
            match Profile_io.load p dump with
            | Error ds -> Failed { code = "bad-request"; diagnostics = ds }
            | Ok loaded ->
                let prep = H.prepare_with_profile ~session ~name ~loaded p in
                finish
                  ~optimized:(Ppp_ir.Pp_ir.to_string prep.H.optimized)
                  ~extra_meta:
                    [ ( "matched_fraction",
                        Jsonx.Float loaded.Profile_io.matched_fraction );
                      ( "profile_diagnostics",
                        Diagnostic.list_to_json loaded.Profile_io.diagnostics )
                    ]))

let handle_status () =
  let stats =
    Hashtbl.fold
      (fun name s acc ->
        let st = Session.stats s in
        Jsonx.Obj
          [ ("name", Jsonx.Str name); ("hits", Jsonx.Int st.Session.hits);
            ("misses", Jsonx.Int st.Session.misses) ]
        :: acc)
      sessions []
  in
  Okay
    {
      body = "ok";
      meta =
        [ ("pid", Jsonx.Int (Unix.getpid ()));
          ("sessions", Jsonx.Arr stats) ];
    }

let handle ~chaos req =
  try
    match req with
    | Ping -> Okay { body = "pong"; meta = [] }
    | Collect { bench; scale; sample_rate; burst; sample_seed } ->
        handle_collect ~bench ~scale ~sample_rate ~burst ~sample_seed
    | Merge { dumps; decay } -> handle_merge ~dumps ~decay
    | Opt { name; program; profile; iterate; plans } ->
        handle_opt ~name ~program ~profile ~iterate ~plans
    | Status -> handle_status ()
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
