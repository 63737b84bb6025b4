(** The daemon's request/reply vocabulary and its JSON wire codecs.

    A request travels as one {!Wire} frame holding the JSON of an
    {!envelope}; the reply comes back as one frame holding the JSON of a
    {!reply}. Envelopes carry a client-chosen id (echoed back, so a retry
    after a worker death can be correlated) and the request's deadline
    budget in milliseconds. All payloads are strings of the repo's
    existing textual formats — v2 profile dumps, [.pir] program text,
    session plan exports — so the daemon never invents a second
    serialization for domain data; binary-unsafe fields (marshaled plans)
    travel hex-encoded.

    {!collect}, {!merge} and {!opt} build the reply to a request from
    inputs already in memory; [pppc] calls them in process, and
    {!handle}, the worker-side interpreter, calls them for [pppd]. It
    holds a resident {!Ppp_session.Session} per program name, up to
    {!max_sessions} of them, so repeated [Opt] requests for the same
    program reuse memoized analyses and runs, and [--iterate] resumes
    across client invocations. It never raises — failures come back as
    [Failed] replies with classified diagnostics. {!print} renders any
    reply the way [pppc] shows it, whichever path built it. *)

type request =
  | Ping
  | Collect of {
      bench : string;
      scale : int;
      sample_rate : int;
          (** sampling-rate denominator ({!Ppp_interp.Sampling}); [<= 1]
              collects exactly (the engine's path tracer), [> 1] collects
              under bursty sampled PPP instrumentation and dumps
              inverse-rate estimates. Omitted from the wire at 1, so
              older clients and daemons interoperate. *)
      burst : int;  (** burst length; on the wire only when non-default *)
      sample_seed : int;  (** phase seed; on the wire only when non-zero *)
    }
  | Merge of {
      dumps : string list;
      decay : float;
          (** [1.0] is the plain commutative merge; [< 1.0] weights input
              [i] of [n] (oldest first) by [decay ^ (n-1-i)]
              ({!Ppp_profile.Profile_io.Raw.merge_decayed}). Omitted from
              the wire at 1.0. *)
    }
  | Opt of {
      name : string;  (** session key; programs with equal names share analyses *)
      program : string;  (** [.pir] source text *)
      profile : string option;  (** optional profile dump to apply *)
      iterate : int;  (** >1 runs the incremental re-optimization loop *)
      plans : string option;  (** hex of a session plan export to resume from *)
    }
  | Status
  | Shutdown
  | Stall of float  (** chaos: sleep this many seconds, then reply to Ping *)
  | Crash  (** chaos: exit abruptly without replying *)

type envelope = { id : int; deadline_ms : int; req : request }

type reply =
  | Okay of { body : string; meta : (string * Ppp_obs.Jsonx.t) list }
  | Failed of { code : string; diagnostics : Ppp_resilience.Diagnostic.t list }
      (** [code] is one of ["bad-request"], ["timeout"], ["shed"],
          ["worker-lost"], ["unsupported"], ["error"]. *)

val is_idempotent : request -> bool
(** Safe to retry on a fresh worker after the serving worker died
    mid-request. Everything here is a pure function of its payload
    (sessions are caches, not state the client observes), so all real
    requests are idempotent; only chaos ops are not retried. *)

val encode_request : envelope -> string
val decode_request : string -> (envelope, string) result
val encode_reply : reply -> string
val decode_reply : string -> (reply, string) result

val served : string * Ppp_obs.Jsonx.t
(** [("served_from_store", Bool true)], the meta field that marks a reply
    the daemon answered from its store. *)

val mark_served : string -> string option
(** [mark_served (encode_reply (Okay {body; meta}))] is
    [Some (encode_reply (Okay {body; meta = meta @ [served]}))], spliced
    into the bytes without decoding the body: a stored reply is relayed
    at the cost of one copy. [None] for a [Failed] reply and for bytes
    that are not a whole encoded [Okay] reply (truncated, say). *)

(** {2 The requests both paths serve}

    Each builds an [Okay] reply whose body is the request's text result
    and whose meta carries every number and diagnostic {!print} shows. *)

val collect :
  ?engine:Ppp_interp.Interp.engine ->
  ?sampling:Ppp_interp.Sampling.spec ->
  Ppp_ir.Ir.program ->
  reply
(** One program's v2 profile dump, made as a shard worker makes it
    ({!Ppp_harness.Shard.collect_program}): from an exact run of
    [engine] (default the VM), or under [sampling], whose rate and burst
    the meta records. *)

val merge : decay:float -> string list -> reply
(** The merge of these v2 dumps ([decay] as in [Merge]); the meta holds
    the input count, the merged count mass and lost count, and every
    diagnostic the inputs and the merge raised. *)

val opt :
  ?flags:Ppp_harness.Pipeline.opt_flags ->
  session:Ppp_session.Session.t ->
  ?profile:Ppp_profile.Profile_io.loaded ->
  iterate:int ->
  name:string ->
  Ppp_ir.Ir.program ->
  reply
(** The optimized program's [.pir] text. With [iterate > 1], that many
    re-optimization generations against [session], and the meta holds
    each generation's counts and instrumented costs and the session
    counts this request added. Otherwise one preparation, from [profile]
    if given, and the meta holds its inline and unroll stats, both base
    costs, and the profile's match, salvage counts and diagnostics. The
    superblock and layout counts are there when [flags] turn those
    passes on. @raise Invalid_argument for a [profile] with
    [iterate > 1]. *)

val pp_summary : ?name:string -> Format.formatter -> reply -> unit
(** Each line and diagnostic list a reply's meta carries, in the order
    [pppc] has always printed them, then whether the store served it.
    The session line is labelled with the request's [name]. A line
    whose fields the meta lacks, or the session line without [name],
    prints nothing. A [Failed] reply prints its diagnostics. *)

val print : ?output:string -> ?name:string -> reply -> unit
(** An [Okay] reply's body to [output] (written atomically) or stdout,
    then {!pp_summary} on stderr. *)

val max_sessions : int
(** How many per-name sessions {!handle} keeps resident: 32. A request
    under a new name beyond that evicts the least recently used one. *)

val session_counts : unit -> int * int
(** The resident session count and the evictions so far, in this
    process. *)

val handle : chaos:bool -> request -> reply
(** Serve a request in this process, as the supervised worker's main
    loop does: build the inputs of {!collect}, {!merge} or {!opt} from
    it (the bench build, the program parse, the profile load, the
    resident session and its imported plans) and call it. An [Opt]
    reply's meta also holds the session's exported plans. A request
    rejected as malformed takes no resident session. [chaos:false]
    rejects [Stall]/[Crash] with code ["unsupported"]. Never raises. *)
