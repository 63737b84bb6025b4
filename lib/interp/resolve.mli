(** The variant-resolution policy of both execution engines.

    A routine runs one of several {e streams}: its instrumented body, its
    plain (uninstrumented) body, and, once the tier controller fires for
    it, one optimized generation. A frame runs one stream at a time, and
    picks or changes it only at a resolution point: its entry, and each
    path-ending back edge it crosses. There the order is always the
    same. First the tier trip ({!Tier.trip}), whose firing installs the
    routine's new stream at once. Then the sampling tick
    ({!Sampling.tick}), taken at every resolution point whenever the run
    samples, so the burst schedule never depends on tier decisions. Then
    the resolution: a tiered routine's frames run its current stream,
    and otherwise the burst decides between instrumented and plain.

    Both the flat {!Vm} and the reference engine in {!Interp} resolve
    through this module, so their stream choices, swap notes, tier logs
    and [rt.sample.*]/[tier.*] metrics come from one definition. The
    engines keep only their mechanics: the VM its code arrays, its pc
    retargeting and a per-frame flag that skips resolution points with
    nothing left to decide ({!must_redecide}); the reference one stream
    id per frame.

    Streams are numbered per routine, and {!Lower} numbers a routine's
    variants the same way: {!instr} is the stream a frame enters while
    collecting (an uninstrumented routine's only body, so its plain
    stream is {!instr} too); an instrumented routine's plain stream is
    [1]; a tier-up generation is the number after the plain stream. *)

type t
(** The policy's state for one run: the sampler and tier controller, if
    any, and each routine's current stream. *)

val instr : int
(** The stream every routine starts in: [0]. *)

val start :
  ?install:(idx:int -> order:int array -> gen:int -> unit) ->
  Engine.config ->
  tables:Instr_rt.state ->
  Ppp_ir.Ir.program ->
  t
(** The policy for one run of the program, whose routines are indexed
    by their position in [p.routines]. The sampler and the tier
    controller start only when the run is instrumented: sampling only
    gates instrumentation actions, and a tier-up retires an
    instrumented stream. [tables] are the run's live frequency tables,
    read when a routine fires. [install ~idx ~order ~gen] builds
    routine [idx]'s optimized generation [gen] under the genuine block
    order [order] (the VM re-lowers it); the reference engine has no
    code to build and passes none. *)

val enter : t -> int -> int
(** [enter t r] is the stream a new frame of routine [r] runs, after
    the trip and the tick. Counts an entry swap ([tier.entry_swaps])
    when the routine has tiered up. *)

val back_edge : t -> int -> from:int -> int
(** [back_edge t r ~from] is the stream a frame of routine [r] running
    stream [from] continues on after a path-ending edge, after the trip
    and the tick. A swap wins over the burst decision: once the routine
    has tiered up, every frame crosses onto its current stream (OSR),
    counted ([tier.osr_swaps]) only where the frame's stream changes. *)

val must_redecide : t -> bool array
(** Routine [r]'s entry says whether a frame of it must still resolve
    at its path-ending edges: while the run samples, or while the
    routine's tier decision is pending. A frame that read [false] after
    its entry or its last resolution point already runs the stream
    {!back_edge} would answer, so it may skip the call. The array is the
    policy's own, updated at each resolution point, so the VM reads it
    there without a call. *)

val rearm : t -> int -> int -> int
(** [rearm t r e] is the path register of a frame of routine [r] that
    switches from the plain to the instrumented stream at edge [e]: the
    value the actions after [e]'s last counting action leave in a
    register starting from [0]. The count itself belongs to the
    off-burst stretch and is not made. *)

val decisions : t -> Tier.decision list
(** The tier controller's swap log, in firing order; [[]] when the run
    does not tier. *)

val flush_metrics : t -> unit
(** Flush the [rt.sample.*] and [tier.*] counters of the run's sampler
    and tier controller. Called once at run end when observation is
    on. *)
