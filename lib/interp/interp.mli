(** The interpreter: executes IR programs, optionally collecting an edge
    profile, the ground-truth path profile, and/or executing path-profiling
    instrumentation.

    Path semantics follow Section 3.1: a back edge ends the current path
    and starts a new one at the loop header; a call starts a fresh path in
    the callee while the caller's path is deferred across the call; a
    return ends the callee's current path.

    Two execution engines share these semantics: the flat {!Vm} (the
    default — routines are pre-lowered to contiguous opcode arrays, see
    {!Lower}) and the reference tree-walker defined here, which serves as
    the executable specification. The differential suite asserts the two
    produce byte-identical outcomes; everything cost-model-derived
    (overheads, profiles, table state) is engine-invariant, only
    wall-clock throughput differs. *)

exception Runtime_error of string
(** Division by zero, array index out of bounds, or other genuine dynamic
    faults. Fuel exhaustion is {e not} an error: it is reported through
    {!type-termination} with a partial {!outcome}. *)

type config = Engine.config = {
  fuel : int;  (** maximum dynamic instructions before stopping *)
  collect_edges : bool;
  trace_paths : bool;
  instrumentation : Instr_rt.t option;
  overflow_policy : Instr_rt.Table.overflow_policy;
      (** how frequency tables handle unattributable path executions *)
  telemetry : Telemetry.t option;
      (** attach a live-telemetry snapshot ring (see {!Telemetry}); the
          {!Vm} engine samples its counters into it periodically, the
          reference engine ignores it. Outcomes are byte-identical with
          and without a ring. *)
  layout : (string, int array) Hashtbl.t option;
      (** per-routine block emission order for the pre-lowered {!Vm}
          (see [Layout]): the named routine's blocks are emitted in the
          given permutation (entry first) so the hot path runs
          fall-through. A pure placement hint — outcomes are
          byte-identical under any (or no) layout, which the layout
          differential suite asserts. The reference engine walks the AST
          and ignores it entirely. *)
  sampling : Sampling.spec option;
      (** bursty collection sampling (see {!Sampling}): instrumented
          frames alternate, at seeded burst boundaries on the frame-entry
          and loop-back-edge fast paths, between their instrumented and
          uninstrumented streams, so roughly [1/denom] of dynamic paths
          are recorded. Program outcomes (return value, output,
          termination, base cost, dyn counts, edge and path profiles)
          are byte-identical with sampling on or off, in both engines;
          only [instr_cost] and [instr_state] change. Inert without
          [instrumentation]. Recover full-profile estimates with
          {!Instr_rt.scaled_count}. *)
  tier : Tier.spec option;
      (** tiered in-VM re-optimization (see {!Tier}): routines start in
          their instrumented variant; once a routine's frame-entry trip
          count crosses the spec's threshold, the controller re-lowers it
          hot-path-first with instrumentation stripped and installs the
          new body, which frames pick up at the next call boundary or
          loop-back-edge OSR point. Program outcomes are byte-identical
          with tiering on or off, in both engines; the recorded profile
          freezes per routine at its swap, and [instr_cost] drops. Inert
          without [instrumentation]. Both engines take their trips,
          swaps and swap log from one policy ({!Resolve}); the
          reference engine has no code to re-lower and tracks only
          which stream each frame runs, so the differential suite
          compares tiered runs engine-to-engine. *)
}

val default_config : config
(** [fuel = 2_000_000_000], edge collection and path tracing on, no
    instrumentation, [Drop] overflow policy, no telemetry. *)

type termination = Engine.termination =
  | Finished  (** [main] returned normally *)
  | Out_of_fuel of { stack_depth : int }
      (** the fuel budget ran out with [stack_depth] activations still
          live; the outcome holds everything collected up to that point *)

type outcome = Engine.outcome = {
  return_value : int option;  (** of [main]; [None] if out of fuel *)
  output : int list;  (** values emitted by [Out], in order *)
  base_cost : int;  (** cycles of the program proper *)
  instr_cost : int;  (** cycles of instrumentation actions *)
  dyn_instrs : int;
  dyn_paths : int;  (** ground-truth path executions (0 unless traced) *)
  termination : termination;
  edge_profile : Ppp_profile.Edge_profile.program option;
  path_profile : Ppp_profile.Path_profile.program option;
  instr_state : Instr_rt.state option;
  tier_decisions : Tier.decision list;
      (** the tier controller's swap log in firing order; empty unless
          [tier] is set. Engine-invariant: both engines reach the same
          decisions at the same trip counts through {!Resolve}. *)
}

val overhead : outcome -> float
(** [instr_cost / base_cost]. *)

val exec_binop : Ppp_ir.Ir.binop -> int -> int -> int
(** The shared arithmetic of both engines (re-exported from {!Engine});
    shifts saturate rather than wrap. *)

type engine =
  | Vm  (** pre-lowered flat VM: the fast default *)
  | Reference  (** the tree-walking executable specification *)

val run :
  ?config:config ->
  ?engine:engine ->
  ?cache:Lower.cache ->
  Ppp_ir.Ir.program ->
  outcome
(** Runs to completion or fuel exhaustion — check [outcome.termination].
    When fuel runs out the profiles collected so far are still returned
    (a truncated but usable sample). [engine] defaults to {!Vm}; both
    engines produce identical outcomes on well-formed programs (programs
    that fail [Ppp_ir.Check] may fault with different error messages).
    [cache], used only by the {!Vm} engine, memoizes structural lowering
    across runs (see {!Lower.cache}); outcomes are byte-identical with
    and without it.
    @raise Runtime_error on a genuine dynamic fault, including — in
    either engine, up front — a call whose argument count exceeds the
    callee's register file. *)
