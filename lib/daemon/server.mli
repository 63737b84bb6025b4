(** The resident profile service: a single-threaded [select] event loop
    owning the persistent {!Store} and a pool of supervised worker
    subprocesses that execute {!Ops} requests.

    The division of labor is single-writer by construction: {e only the
    parent} touches the store (so no mutation can race), and {e only
    workers} run domain code (so a crash, stall or runaway request never
    takes the store owner down). Each worker speaks {!Wire} frames over
    its socketpair; clients connect to a Unix-domain socket, send one
    framed request, receive one framed reply, and the connection closes.

    Robustness contract:
    - {b Deadlines.} Every request carries a millisecond budget (the
      config default when unset). A worker that overruns is SIGKILLed,
      the client gets a [Failed "timeout"] reply, and the slot restarts.
    - {b Bounded queue.} When every worker is busy and the queue is at
      [queue_limit], new requests are shed immediately with
      [Failed "shed"] — load makes the daemon slow to accept, never
      unbounded in memory, and clients degrade to the in-process path.
    - {b Supervision.} A dead worker restarts after seeded-jitter
      exponential backoff ({!Ppp_resilience.Faults} RNG, so chaos runs
      are reproducible). An idempotent request whose worker died
      mid-flight is retried once on a fresh worker before the client
      sees [Failed "worker-lost"].
    - {b Store serving.} [Collect], [Merge] and [Opt] replies are
      persisted whole and served from the store on identical
      re-requests, so a served reply prints what its first answer
      printed, plus the served line; [Opt] requests that carry no plan
      bundle and miss the store resume from the routine plans persisted
      under the program's name, which is what makes a warm daemon's
      [--iterate] cheaper than a cold process. An [Opt] entry is keyed
      by the request as its client sent it ([id] and [deadline_ms]
      zeroed, a profile dump replaced by its MD5), so its key is the
      size of the program. The plan bundle is no part of the key: an
      [Opt]'s body does not depend on the plans injected into it, so an
      identical [Opt] misses once, and only a miss reads the stored
      bundle and hex-encodes it into the request a worker computes.
      Every entry holds the worker's encoded reply; a hit relays those
      bytes with [served_from_store] spliced into the meta
      ({!Ops.mark_served}), so a hit decodes and encodes no JSON. An
      older store's [Collect] or [Merge] entry, which holds a bare
      profile or merged dump rather than a reply, misses once and is
      overwritten. An [Opt] entry written under an older key, which
      held the bundle's hex or its MD5, is never served again: its
      request misses once. *)

type config = {
  socket_path : string;
  store_dir : string;
  workers : int;  (** pool size, clamped to at least 1 *)
  queue_limit : int;  (** queued (not in-flight) requests before shedding *)
  default_deadline_ms : int;  (** for envelopes with [deadline_ms <= 0] *)
  chaos_ops : bool;  (** accept [Stall]/[Crash] requests (tests only) *)
  seed : int;  (** restart-jitter RNG seed *)
  quiet : bool;
}

val default_config : socket_path:string -> store_dir:string -> config
(** 2 workers, queue limit 16, 30s default deadline, chaos off, seed 1. *)

val run : config -> unit
(** Serve until a [Shutdown] request (or SIGTERM/SIGINT). Replays the
    store's reopen diagnostics to stderr (unless [quiet]), then accepts.
    On exit: workers are terminated, the socket unlinked, the store
    closed. Raises [Unix.Unix_error] only for startup failures (socket
    already bound, unwritable store dir) — never once serving. *)
