(* The daemon workloads: [pppd] with its default config on a fresh
   store, and one closed-loop client standing in for [pppc opt] callers,
   which block on their reply. Each request is [Opt {iterate = 3}] for
   one of the programs as [.pir] text. A unit of work is a cycle: one
   request per program, in a seeded order. The programs' latencies differ
   several-fold, so a unit that covers all of them measures the same mix
   on every run. Warm and cold requests are separate workloads, so no
   assumed traffic mix decides what either one's numbers measure:
   - daemon-warm: a (name, program) pair sent twice during set-up, so
     the store serves it;
   - daemon-cold: a never-seen name [<bench>@<k>], so the server
     re-optimizes in a fresh session and writes the store. *)

open Common
module Ops = Ppp_daemon.Ops
module Client = Ppp_daemon.Client
module Server = Ppp_daemon.Server
module Store = Ppp_daemon.Store
module Jsonx = Ppp_obs.Jsonx
module Pipeline = Ppp_harness.Pipeline
module Profile_io = Ppp_profile.Profile_io

type kind = Warm | Cold

let workload = function Warm -> "daemon-warm" | Cold -> "daemon-cold"

type server = { dir : string; socket : string; pid : int }

let deadline_ms = 20_000

let sleep_s s = try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

let rec wait_until ~timeout_s ready =
  ready ()
  || timeout_s > 0.
     && begin
          sleep_s 0.02;
          wait_until ~timeout_s:(timeout_s -. 0.02) ready
        end

let reaped pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let stop_server s =
  ignore (Client.call ~socket:s.socket ~deadline_ms:5_000 Ops.Shutdown);
  if not (wait_until ~timeout_s:5. (fun () -> reaped s.pid)) then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (try Unix.waitpid [] s.pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
  end;
  remove_tree s.dir

let start_server () =
  let dir = fresh_dir "daemon" in
  let socket = Filename.concat dir "sock" in
  let store_dir = Filename.concat dir "store" in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      (try
         Server.run
           { (Server.default_config ~socket_path:socket ~store_dir) with quiet = true }
       with _ -> ());
      Unix._exit 0
  | pid ->
      let s = { dir; socket; pid } in
      let up () =
        Result.is_ok (Client.call ~socket ~deadline_ms:500 Ops.Ping)
      in
      if not (wait_until ~timeout_s:10. up) then begin
        stop_server s;
        failwith "daemon did not come up within 10s"
      end;
      s

let opt ~name ~pir =
  Ops.Opt { name; program = pir; profile = None; iterate = 3; plans = None }

type state = {
  server : server;
  pir : (string * string) array;  (** bench name, program text *)
  order : int array;  (** seeded permutation of [pir] *)
  first : (string, string) Hashtbl.t;  (** bench -> body of its first reply *)
  mutable opt_requests : int;
  mutable store_hits : int;
  mutable mismatches : string list;
  mutable last : (Ops.request * (string * (string * Jsonx.t) list)) option;
  mutable request_s : float list;  (** every timed request's round trip *)
  mutable peak_kb : int;
}

(* The server's store and its workers' session tables grow with every
   cold request, so the timed loop reads peak memory after a fixed
   number of cycles, not after however many the window held. *)
let peak_after_cycles = 2

(* The largest peak RSS among the client, the server and its workers. *)
let processes_peak_kb st =
  List.fold_left max (peak_rss_kb "self")
    (List.map
       (fun pid -> peak_rss_kb (string_of_int pid))
       (st.server.pid :: children st.server.pid))

let shuffled rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Book one [Opt] reply: its body must equal the bench's first reply,
   whatever name it was asked under. *)
let absorb st ~name idx req r =
  let bench = fst st.pir.(idx) in
  st.opt_requests <- st.opt_requests + 1;
  match r with
  | Ok ((body, meta) as reply) -> (
      st.last <- Some (req, reply);
      if List.assoc_opt "served_from_store" meta = Some (Jsonx.Bool true) then
        st.store_hits <- st.store_hits + 1;
      match Hashtbl.find_opt st.first bench with
      | None -> Hashtbl.add st.first bench body
      | Some e ->
          if e <> body then
            st.mismatches <- Printf.sprintf "reply body for %s" name :: st.mismatches)
  | Error f ->
      st.last <- None;
      st.mismatches <-
        Format.asprintf "request %s: %a" name Ppp_resilience.Diagnostic.pp
          (Client.failure_diagnostic f)
        :: st.mismatches

let call st req = Client.call ~socket:st.server.socket ~deadline_ms req

(* Set-up traffic from the same closed-loop client: each program [sends]
   times under [name bench]. The server hands a request to its first
   idle worker, so one client's requests all reach the same worker, and
   that worker's memory does not depend on timing. *)
let prewarm st ~sends ~name =
  Array.iteri
    (fun idx (bench, pir) ->
      let name = name bench in
      for _ = 1 to sends do
        let req = opt ~name ~pir in
        absorb st ~name idx req (call st req)
      done)
    st.pir

(* Warm: each pair twice. The first send misses; the second misses too,
   because the server injects the plans the first one stored, which
   changes the request's cache key; from the third on, the store serves
   it. Cold: each program once under a set-up name, so the worker has
   run the pipeline before the timed requests. *)
let start kind sizes ~seed =
  let pir =
    Array.of_list
      (List.map
         (fun (b : Spec.bench) ->
           (b.Spec.bench_name, Ppp_ir.Pp_ir.to_string (b.Spec.build ~scale:sizes.daemon_scale)))
         sizes.daemon_benches)
  in
  let n = Array.length pir in
  let st =
    {
      server = start_server ();
      pir;
      order = shuffled (Random.State.make [| seed |]) n;
      first = Hashtbl.create n;
      opt_requests = 0;
      store_hits = 0;
      mismatches = [];
      last = None;
      request_s = [];
      peak_kb = 0;
    }
  in
  (match kind with
  | Warm -> prewarm st ~sends:2 ~name:Fun.id
  | Cold -> prewarm st ~sends:1 ~name:(fun bench -> bench ^ "@setup"));
  st

(* One timed [Opt] exchange; only [Client.call] is inside the timer. *)
let request st kind ~cycle idx =
  let bench, pir = st.pir.(idx) in
  let name = match kind with Warm -> bench | Cold -> Printf.sprintf "%s@%d" bench cycle in
  let req = opt ~name ~pir in
  let r, dur_s =
    Span.with_ "daemon.request" (fun () -> Clock.time (fun () -> call st req))
  in
  absorb st ~name idx req r;
  st.request_s <- dur_s :: st.request_s;
  (dur_s, Result.is_error r)

(* Cycle [i]: its time is the sum of its requests' round trips. *)
let unit_of_work st kind i =
  let results = Array.map (request st kind ~cycle:i) st.order in
  if i + 1 = peak_after_cycles then st.peak_kb <- processes_peak_kb st;
  {
    dur_s = Array.fold_left (fun a (d, _) -> a +. d) 0. results;
    attempted = Array.length results;
    failed = Array.fold_left (fun n (_, f) -> n + Bool.to_int f) 0 results;
  }

(* Per-request latency, named after the request kind: the median and the
   highest percentile with ten samples beyond it; and requests completed
   per second of round trip. *)
let request_info st kind =
  let ms = List.map (fun s -> 1000. *. s) st.request_s and n = List.length st.request_s in
  let base = match kind with Warm -> "warm_ms" | Cold -> "cold_ms" in
  let pct q = (base ^ "." ^ Stats.permille_name q, Stats.percentile_permille ms q, "ms") in
  if n = 0 then []
  else
    (base ^ ".p50", Stats.median ms, "ms")
    :: (match Stats.supported_permille n with Some q when q > 500 -> [ pct q ] | _ -> [])
    @ [ ("req_s", float n /. List.fold_left ( +. ) 0. st.request_s, "1/s") ]

(* Every reply body for a program, warm or cold, equals its first one
   (checked as the replies arrived). The first equals the reply the
   worker code gives in-process for a fresh name, and the optimized
   program computes what the original does, on the reference engine. *)
let verify st kind () =
  let run text =
    let o = reference (Ppp_ir.Parse.program_of_string text) in
    (o.Interp.return_value, o.Interp.output)
  in
  let per (bench, pir) =
    let body = Hashtbl.find_opt st.first bench in
    let in_process =
      match Ops.handle ~chaos:false (opt ~name:(bench ^ "@verify") ~pir) with
      | Ops.Okay { body; _ } -> Some body
      | Ops.Failed _ -> None
    in
    [ ("reply for " ^ bench ^ " = in-process reply", body <> None && body = in_process);
      ( "optimized program semantics " ^ bench,
        match body with
        | None -> false
        | Some body -> (
            try run body = run pir
            with Ppp_ir.Parse.Error _ | Interp.Runtime_error _ -> false) ) ]
  in
  {
    checks =
      List.rev_map (fun m -> (m, false)) st.mismatches
      @ List.concat (par_map per (Array.to_list st.pir));
    info = request_info st kind;
  }

let handle kind sizes ~seed =
  let st = start kind sizes ~seed in
  {
    unit_of_work = unit_of_work st kind;
    peak_rss_kb = (fun () -> if st.peak_kb > 0 then st.peak_kb else processes_peak_kb st);
    verify = verify st kind;
    stop = (fun () -> stop_server st.server);
  }

type traced = {
  hit_ratio : float;  (** store hits over [Opt] requests, set-up included *)
  reply_kb : float;  (** mean encoded reply size *)
  session_hits : int;
  session_misses : int;
  checks : check list;
}

(* The traced batch, on one warm server: a cycle of each kind as in the
   timed loops, each its own root span; then the cold requests' layers
   in-process (worker compute, parse, re-optimization, profile load), the
   codecs and the store on the batch's real payloads, and the bare round
   trip. *)
let traced sizes ~seed =
  let st = Span.with_ "daemon-warm.setup" (fun () -> start Warm sizes ~seed) in
  Fun.protect ~finally:(fun () -> stop_server st.server) @@ fun () ->
  let checks = ref [] in
  let check what ok = checks := ("daemon: " ^ what, ok) :: !checks in
  let exchanges = ref [] and cold = ref [] in
  List.iter
    (fun kind ->
      Span.with_ (workload kind ^ ".cycle") (fun () ->
          Array.iter
            (fun idx ->
              check "request answered" (not (snd (request st kind ~cycle:0 idx)));
              Option.iter
                (fun ((req, _) as x) ->
                  exchanges := x :: !exchanges;
                  match (kind, req) with
                  | Cold, Ops.Opt { program; _ } -> cold := program :: !cold
                  | _ -> ())
                st.last)
            st.order))
    [ Warm; Cold ];
  let hit_ratio = float st.store_hits /. float st.opt_requests in
  for _ = 1 to 20 do
    check "ping"
      (Result.is_ok
         (Span.with_ "daemon.ping" (fun () ->
              Client.call ~socket:st.server.socket ~deadline_ms Ops.Ping)))
  done;
  let hits = ref 0 and misses = ref 0 in
  List.iteri
    (fun k pir ->
      let name = Printf.sprintf "ledger@%d" k in
      let reply =
        Span.with_ "ops.handle" (fun () -> Ops.handle ~chaos:false (opt ~name ~pir))
      in
      let bench = fst (List.find (fun (_, text) -> text = pir) (Array.to_list st.pir)) in
      check "in-process reply = daemon reply"
        (match reply with
        | Ops.Okay { body; _ } -> Hashtbl.find_opt st.first bench = Some body
        | Ops.Failed _ -> false);
      let p = Span.with_ "ir.parse" (fun () -> Ppp_ir.Parse.program_of_string pir) in
      let session = Ppp_session.Session.create ~name () in
      ignore
        (Span.with_ "pipeline.reoptimize" (fun () ->
             Pipeline.reoptimize ~session ~iterations:3 ~name p));
      let stats = Ppp_session.Session.stats session in
      hits := !hits + stats.Ppp_session.Session.hits;
      misses := !misses + stats.Ppp_session.Session.misses;
      let o = Interp.run p in
      let dump =
        Format.asprintf "%t" (fun ppf ->
            Profile_io.save ?edges:o.Interp.edge_profile
              ?paths:o.Interp.path_profile ppf p)
      in
      check "profile loads"
        (Result.is_ok (Span.with_ "io.load" (fun () -> Profile_io.load p dump))))
    !cold;
  let encoded =
    List.map
      (fun (req, (body, meta)) ->
        let key =
          Span.with_ "ops.encode_request" (fun () ->
              Ops.encode_request { Ops.id = 0; deadline_ms = 0; req })
        in
        let reply = Ops.Okay { body; meta } in
        let text = Span.with_ "ops.encode_reply" (fun () -> Ops.encode_reply reply) in
        check "reply codec round trip"
          (Result.map Ops.encode_reply
             (Span.with_ "ops.decode_reply" (fun () -> Ops.decode_reply text))
          = Ok text);
        (key, text))
      !exchanges
  in
  let dir = fresh_dir "store-probe" in
  let store, _ = Store.open_store ~dir in
  List.iter
    (fun (key, text) ->
      check "store put"
        (Result.is_ok
           (Span.with_ "store.put" (fun () -> Store.put store ~kind:"opt" ~key text))))
    encoded;
  List.iter
    (fun (key, text) ->
      check "store get"
        (Span.with_ "store.get" (fun () -> Store.get store ~kind:"opt" ~key)
        = Some text))
    encoded;
  Store.close store;
  remove_tree dir;
  List.iter (fun (m, ok) -> check m ok) (verify st Warm ()).checks;
  let bytes = List.fold_left (fun a (_, t) -> a + String.length t) 0 encoded in
  {
    hit_ratio;
    reply_kb = float bytes /. float (List.length encoded) /. 1024.;
    session_hits = !hits;
    session_misses = !misses;
    checks = List.rev !checks;
  }
