(* pppd: the resident profile service.

   Owns a persistent content-addressed artifact store and a pool of
   supervised worker subprocesses, and serves collect/merge/opt requests
   from [pppc --daemon] over a Unix-domain socket. See Ppp_daemon.Server
   for the robustness contract. *)

module Server = Ppp_daemon.Server
open Cmdliner

let socket_arg =
  let doc = "Unix-domain socket to listen on." in
  Arg.(
    value
    & opt string (Filename.concat "." "pppd.sock")
    & info [ "socket" ] ~docv:"PATH" ~doc)

let store_arg =
  let doc =
    "Directory of the persistent artifact store (created if missing): \
     the replies to collect, merge and opt requests survive daemon \
     restarts here."
  in
  Arg.(
    value
    & opt string (Filename.concat "." "pppd-store")
    & info [ "store" ] ~docv:"DIR" ~doc)

let workers_arg =
  let doc = "Supervised worker subprocesses." in
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)

let queue_arg =
  let doc =
    "Requests queued (beyond the in-flight ones) before new requests are \
     shed with a degradation reply."
  in
  Arg.(value & opt int 16 & info [ "queue-limit" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc = "Default deadline for requests that do not carry one (ms)." in
  Arg.(value & opt int 30_000 & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let chaos_arg =
  let doc =
    "Accept the chaos-only Stall/Crash requests (fault-injection tests \
     only; never enable on a daemon you care about)."
  in
  Arg.(value & flag & info [ "chaos-ops" ] ~doc)

let seed_arg =
  let doc = "Seed of the worker-restart jitter RNG." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let quiet_arg =
  let doc = "Suppress the per-event log on stderr." in
  Arg.(value & flag & info [ "quiet" ] ~doc)

let main socket_path store_dir workers queue_limit default_deadline_ms chaos_ops
    seed quiet =
  try
    Server.run
      {
        Server.socket_path;
        store_dir;
        workers;
        queue_limit;
        default_deadline_ms;
        chaos_ops;
        seed;
        quiet;
      }
  with Unix.Unix_error (e, fn, arg) ->
    Format.eprintf "pppd: cannot start: %s%s: %s@." fn
      (if arg = "" then "" else Printf.sprintf " %S" arg)
      (Unix.error_message e);
    exit 1

let () =
  let doc = "resident profile service for pppc" in
  let info = Cmd.info "pppd" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const main $ socket_arg $ store_arg $ workers_arg $ queue_arg
            $ deadline_arg $ chaos_arg $ seed_arg $ quiet_arg)))
