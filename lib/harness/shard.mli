(** Process-parallel collection: a fork-based worker pool and the
    sharded profile collector built on it.

    Parallelism comes from [Unix.fork], not from domains, for crash
    isolation: a worker that dies loses only the item it holds and never
    the parent's state. Items are handed out on demand, in index order:
    each worker reads one item index at a time from a pipe and streams
    back a [Marshal]-ed result before it gets the next, so a free worker
    takes the next item and no worker sits idle while another has a
    queue. Determinism is the whole point — results come back indexed,
    every item's PRNG seed is derived from the pool seed and the item's
    {e index} (never from the worker count, the worker that ran it, or
    wall clock), and a worker that dies surfaces as a located
    {!Ppp_resilience.Diagnostic} with kind [Shard_lost] rather than
    poisoning the run — so the output of a [-j 8] run is the same value
    a [-j 1] run produces, minus exactly the items lost to crashes. *)

val derive_seed : int -> int -> int
(** [derive_seed base index]: the per-item seed. A pure mix of [base]
    and [index] only, so it is independent of the number of jobs and of
    scheduling order. *)

val map :
  jobs:int ->
  ?seed:int ->
  ?timeout_s:float ->
  f:(seed:int -> 'a -> 'b) ->
  'a list ->
  ('b, Ppp_resilience.Diagnostic.t) result list
(** Apply [f] to every item across [max 1 (min jobs (length items))]
    forked workers; the result list is in item order regardless of
    completion order or of which worker ran which item. An exception
    escaping [f] yields [Error] with a [Shard_lost] diagnostic locating
    the item (its index is reported in the diagnostic's [line] field),
    and the worker goes on. A worker dying outright (crash, signal,
    [exit]) loses only the item it holds, reported the same way; the
    items never handed out go to the surviving workers, and when no
    worker survives each of them comes back as a located [Shard_lost]
    that names no worker (which worker died last depends on timing).
    Worker stdin is its index pipe and stdout is routed to [/dev/null],
    so shard chatter cannot interleave with the parent's output; [f]
    must not read stdin or rely on mutating parent state (it runs in a
    child process). Each result is marshalled without sharing
    ([Marshal.No_sharing]), so it must be acyclic, and a value shared
    within one result arrives as separate copies.

    The parent drains every worker's result pipe from one [select] loop
    and takes each result as soon as its last byte arrives, so no worker
    waits in [write] on a full pipe while the parent reads another; it
    then writes that worker its next index. SIGPIPE is ignored while it
    writes, so a worker that exits before reading its next index cannot
    kill the parent: the index goes back to the queue. All pipe I/O is
    EINTR-safe and short-read/short-write tolerant on both sides
    (workers write through {!Ppp_resilience.Robust_io}). [timeout_s],
    when given, is a wall-clock budget that counts from the start of the
    map for every worker alike: when it runs out every worker is killed
    ([SIGKILL]), and the item each one held, plus every item never
    handed out, becomes a located [Shard_lost] diagnostic instead of
    blocking the merge forever; items already delivered are kept. *)

(** {2 Sharded workload collection}

    The machinery behind [pppc collect bench:all -j N]: one worker item
    per workload, each producing a {!Ppp_profile.Profile_io.Raw.t} plus
    (optionally) a metrics snapshot, sent back through the pipe as the
    value itself ([Marshal] frames it), never as text; the parent
    prefixes every routine with ["BENCH/"] so the 18 programs coexist in
    one namespace, and merges them with
    {!Ppp_profile.Profile_io.Raw.merge}. Text is rendered only by whoever
    writes a dump out. Because collection is deterministic and the merge
    is order-independent, the merged dump is byte-identical across [-j]
    levels. *)

val collect_sampled :
  ?engine:Ppp_interp.Interp.engine ->
  spec:Ppp_interp.Sampling.spec ->
  Ppp_ir.Ir.program ->
  Ppp_profile.Profile_io.Raw.t
(** Collect one program's profile under bursty sampled PPP
    instrumentation: an edge-only run supplies the instrumenter's self
    advice, the instrumented run alternates bursts per [spec], and the
    recovered path counts are scaled back by the inverse rate
    ({!Ppp_interp.Instr_rt.scaled_count}). The resulting dump carries
    the exact edge profile plus full-run path {e estimates} — it merges
    uniformly with unsampled dumps. The dump's edges are the advice
    run's: sampling never changes an edge count, so the instrumented
    run counts no edges. Deterministic for a given
    [(spec, program)] pair, and identical under either [engine]
    (default {!Ppp_interp.Interp.Vm}). *)

val collect_program :
  ?engine:Ppp_interp.Interp.engine ->
  ?sampling:Ppp_interp.Sampling.spec ->
  Ppp_ir.Ir.program ->
  Ppp_profile.Profile_io.Raw.t
(** One program's profile, as a shard worker and a daemon [Collect]
    make it: exact edges and paths from one traced run, or
    {!collect_sampled} under [sampling]. *)

type collected = {
  raw : Ppp_profile.Profile_io.Raw.t;
      (** the merged profile; its diagnostics cover parse/merge issues *)
  shards : (string * Ppp_profile.Profile_io.Raw.t) list;
      (** delivered shards, in workload order: (bench name, its
          profile) — what [--shard-dir] renders and writes out *)
  shard_metrics : (string * Ppp_obs.Metrics.snapshot) list;
      (** per-shard metrics snapshots (empty when [metrics] is off) *)
  metrics : Ppp_obs.Metrics.snapshot;
      (** the {!Ppp_obs.Metrics.merge} of all delivered shards *)
  lost : Ppp_resilience.Diagnostic.t list;
      (** one [Shard_lost] diagnostic per workload whose worker died *)
}

val collect_workloads :
  jobs:int ->
  ?scale:int ->
  ?metrics:bool ->
  ?engine:Ppp_interp.Interp.engine ->
  ?sampling:Ppp_interp.Sampling.spec ->
  ?timeout_s:float ->
  Ppp_workloads.Spec.bench list ->
  collected
(** Run every workload under the pool ([metrics] defaults to [false];
    when on, each worker enables and resets {!Ppp_obs.Metrics} before
    its run, so shard snapshots are disjoint and their merge is
    [-j]-invariant). [engine] (default {!Ppp_interp.Interp.Vm}) runs
    every collection, exact or sampled; the dumps are byte-identical
    under either engine.

    With [sampling], each workload is collected under bursty sampled PPP
    instrumentation ({!Ppp_interp.Sampling}) instead of the engine's
    exact path tracer: a cheap edge-only run supplies self advice, the
    instrumented run alternates bursts at a rate of [1/denom], and the
    dump carries the exact edge profile plus inverse-rate path
    {e estimates} ({!Ppp_interp.Instr_rt.scaled_count}), so sampled
    shards merge uniformly with unsampled ones. The spec's [seed] acts
    as the pool seed: each workload samples under
    [derive_seed seed index], so the merged dump stays byte-identical
    across [-j] levels. *)
