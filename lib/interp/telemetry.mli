(** Live VM telemetry: a bounded ring of periodic snapshots over the
    executing {!Vm}'s counters.

    Attach a ring to a run through {!Engine.config.telemetry}; the VM
    then records one {!sample} roughly every [interval] dynamic
    instructions, at fuel-segment granularity: the countdown moves
    wherever a segment is charged, at its [Fuel] op or at the jump or
    branch that charges its target block's segment inline (see
    {!Lower.op}), so a sample lands at the same instruction count
    either way. Telemetry is off by default and — like every
    {!Ppp_obs.Metrics} instrument — costs one load and one predictable
    branch per charged segment when disabled. It never perturbs execution: outcomes, profiles and cost
    totals are byte-identical with and without a ring attached, which
    [test_quality] asserts differentially.

    The ring keeps the newest [capacity] samples; older ones are
    dropped (counted, never silently). Export the series as JSON
    ({!to_json}) or as Chrome trace counter events
    ({!emit_trace_counters}). The [vm.telemetry.*] metrics count
    samples taken and dropped when metrics are enabled. *)

type sample = {
  seq : int;  (** 0-based sample index over the whole run *)
  dyn_instrs : int;  (** dynamic instructions executed so far *)
  base_cost : int;
  instr_cost : int;
  dyn_paths : int;
  calls : int;  (** calls executed so far (0 when neither metrics nor
                    telemetry had call counting on) *)
  depth : int;  (** live activations at sample time *)
}

type t

val create : ?capacity:int -> interval:int -> unit -> t
(** A fresh ring. [interval] is the sampling period in dynamic
    instructions (>= 1); [capacity] (default 256) bounds retained
    samples. *)

val interval : t -> int

val record :
  t ->
  dyn_instrs:int ->
  base_cost:int ->
  instr_cost:int ->
  dyn_paths:int ->
  calls:int ->
  depth:int ->
  unit
(** Record one sample (called by the VM; allocation-free on the ring's
    steady state). *)

val reset : t -> unit
(** Forget all samples so the ring can be reused across runs. *)

val taken : t -> int
(** Total samples recorded since creation or {!reset}. *)

val dropped : t -> int
(** Samples evicted by the ring bound. *)

val samples : t -> sample list
(** Retained samples, oldest first. *)

val to_json : t -> Ppp_obs.Jsonx.t
(** [{"interval":..,"capacity":..,"taken":..,"dropped":..,"samples":[..]}]. *)

val emit_trace_counters : ?name:string -> t -> unit
(** Push every retained sample as Chrome counter events ("ph":"C",
    series [NAME.cost], [NAME.paths], [NAME.stack]; default name
    ["vm"]) with deterministic virtual timestamps of one microsecond
    per dynamic instruction. No-op unless {!Ppp_obs.Trace} is
    enabled. *)

val rates : t -> (int * int * int) list
(** Per-window deltas [(seq, d_instrs, d_paths)] between consecutive
    retained samples — the windowed throughput signal a hot-routine
    detector polls. *)

(** Per-routine trip accounting: the routine-resolved counters the
    {!Tier} hotness controller watches. One count per lowered plan,
    bumped at frame entry and at the loop back edges that end a path,
    until the routine's tier decision: {!Tier.trip} stops bumping once
    the count reaches the threshold, so a count never exceeds it.
    Engine-invariant: both the VM and the reference tree-walker trip at
    the same program points, which the differential suite relies on. *)
module Trips : sig
  type t

  val create : n:int -> t
  (** A fresh table for a program with [n] routines (indexed by the
      program's routine order). *)

  val bump : t -> int -> int
  (** [bump t i] increments routine [i]'s trip count and returns the
      new per-routine count. *)

  val count : t -> int -> int
  (** Trips recorded for routine [i]. *)

  val total : t -> int
  (** Trips recorded across all routines. *)

  val to_json : names:string array -> t -> Ppp_obs.Jsonx.t
  (** [{"total":..,"routines":{name:count,..}}] in routine order. *)
end
