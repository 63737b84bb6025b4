(** A content-addressed store of per-routine analysis artifacts, shared
    by every phase of a pipeline run and across re-optimization
    generations.

    Artifacts are keyed by the routine's structural fingerprint
    ({!Ppp_resilience.Fingerprint.routine}), so the store is
    content-addressed rather than name-addressed: an edited routine
    misses naturally (its fingerprint changed), and an untouched routine
    hits even across program generations. Each routine name holds one
    entry, for the version of the routine last synced or looked up; an
    entry matches a routine by physical identity first, then by
    fingerprint, and a lookup under any other version replaces it. So a
    generation that undoes an edit recomputes its artifacts.

    The dependency graph between artifact kinds is explicit in the
    accessors — each one pulls its inputs through the store, so a miss on
    a derived artifact still reuses memoized prerequisites:

    {v
      view     <- routine body
      dom      <- view
      loops    <- dom
      lower    <- view + loops          (structural plans, see Ppp_interp.Lower)
      ctx      <- loops + edge profile  (profile identity, not content)
      definite <- ctx                   (definite-flow DP)
    v}

    The profile-dependent artifacts ([ctx], [definite]) are additionally
    keyed by the {e physical identity} of the profile (or context) they
    were derived from: profiles are mutable accumulators with no cheap
    content hash, and every phase of one pipeline run holds the same
    profile object, so identity is exactly the sharing that is safe to
    exploit. Each routine entry keeps them for the latest profile only:
    every reader asks under the profile in hand, and an older profile's
    artifacts would only keep that profile alive.

    The session caches analyses, never decisions. Which paths a routine
    instruments, and how its blocks are laid out, are chosen from the
    profile that advises them (the paper's self advice), so a kept plan
    would describe a profile that is gone. Those are recomputed from the
    cached analyses on every call, and a cached pipeline therefore
    prints exactly what an uncached one prints. Carrying a profile over
    to a changed program is the salvage rule's job
    ({!Ppp_profile.Profile_io.of_raw}), never the cache's.

    Invalidation is dirty-tracking by fingerprint diff: {!sync} compares
    the program's fingerprint table against the previous generation's,
    names the routines whose artifacts are out of date, and gives each
    of them a fresh entry. Nothing is recomputed eagerly — a dirty
    routine's artifacts are built on their next access.

    A program run is an artifact too. The session keeps the outcome of
    its last default-config run ({!run}), which the pipeline's phases
    repeat whenever an optimizer pass changed nothing.

    Every lookup feeds the [session.*] metrics of {!Ppp_obs.Metrics}
    ([session.KIND.hit] / [session.KIND.miss], [session.invalidate], and
    [session.lower.*] from {!Ppp_interp.Lower}), and mirrors them into
    per-session {!stats} that work even with metrics disabled. A
    {e disabled} session ([enabled:false]) memoizes nothing but still
    counts every lookup as a miss, so the work ratio of a warm session
    over a cold one can be read directly off the counters.

    Sessions are single-process and not thread-safe. A session lives
    as long as the request or CLI invocation that creates it: a [pppd]
    worker creates one per [Opt] request, as [pppc opt] does per
    invocation, and no artifact is ever written to disk. *)

type t

val create : ?enabled:bool -> name:string -> unit -> t
(** [enabled] defaults to [true]; [name] labels {!pp_stats} output. *)

val name : t -> string
val enabled : t -> bool

(** {2 Generations} *)

val sync : t -> Ppp_ir.Ir.program -> string list
(** Fingerprint every routine of the program, diff against the table of
    the previous [sync], and return the dirty routine names (changed or
    new), in program order. Each dirty routine gets a fresh entry, and
    the entries of routines that no longer exist are dropped. Call it
    whenever the pipeline moves to a new program generation (original,
    inlined, unrolled, re-optimized); syncing an unchanged program
    returns [[]] and invalidates nothing. *)

(** {2 Analysis artifacts} *)

val view : t -> Ppp_ir.Ir.routine -> Ppp_ir.Cfg_view.t
val dom : t -> Ppp_ir.Ir.routine -> Ppp_cfg.Dom.t
val loops : t -> Ppp_ir.Ir.routine -> Ppp_cfg.Loop.t

val ctx :
  t ->
  ep:Ppp_profile.Edge_profile.program ->
  Ppp_ir.Ir.routine ->
  Ppp_flow.Routine_ctx.t
(** The flow-analysis context of [r] under edge profile [ep], memoized
    per routine fingerprint for the latest [ep] asked about (by
    identity): a lookup under any other profile misses and replaces it. *)

val definite : t -> Ppp_flow.Routine_ctx.t -> Ppp_flow.Flow_dp.t
(** The definite-flow DP of a context, memoized for the routine's latest
    context (by identity; contexts should come from {!ctx} for sharing
    to happen). *)

(** {2 Runs} *)

val run : t -> Ppp_ir.Ir.program -> Ppp_interp.Interp.outcome
(** [Interp.run ?cache:(lower_cache t) p] under the default config,
    memoized in one slot. The slot holds the last such run of a program
    this session synced, keyed by the fingerprint table {!sync} computed
    for it plus every routine's parameter and register counts, the
    arrays and the entry routine. A program other than the one {!sync}
    saw last (by physical identity) always misses, and a disabled
    session memoizes nothing.

    A hit returns the stored outcome itself, shared: its profiles are
    mutable accumulators, and every reader must treat them as
    read-only. With {!Ppp_obs.Metrics} enabled, a hit adds the counter
    increments the stored run made outside [session.*], so metrics read
    as if the run had happened; a run stored while metrics were off
    misses once metrics are on. Counted under [session.run.hit] /
    [session.run.miss] and in {!stats}' [run_hits] / [run_misses].
    @raise Ppp_interp.Interp.Runtime_error as [Interp.run] does; a
    failed run is not stored. *)

(** {2 Lowering} *)

val lower_cache : t -> Ppp_interp.Lower.cache option
(** The session's structural-plan cache for {!Ppp_interp.Lower.program},
    wired to pull CFG views and loop nests from this store; [None] for a
    disabled session. Pass it to every [Interp.run] of the pipeline. *)

(** {2 Reporting} *)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  run_hits : int;  (** {!run} calls served from the slot *)
  run_misses : int;  (** {!run} calls that ran the program *)
}
(** Per-session mirror of the [session.*] counters (excluding
    [session.lower.*], which are global to the process); maintained even
    while {!Ppp_obs.Metrics} is disabled. [hits] and [misses] count
    analysis artifacts only; runs have their own pair. *)

val stats : t -> stats
val pp_stats : Format.formatter -> t -> unit

val pp_counts :
  name:string -> enabled:bool -> Format.formatter -> stats -> unit
(** {!pp_stats}'s line for counts taken elsewhere: those a decoded
    daemon reply carries, say. *)
