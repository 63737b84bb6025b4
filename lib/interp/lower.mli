(** The pre-lowering pass: compiles each routine, once per run, into the
    contiguous opcode array executed by {!Vm}.

    Everything resolvable ahead of time is resolved at lower time:
    operand shapes become distinct opcodes, array names become direct
    [int array] references, per-instruction charges are batched into one
    {!op.Fuel} opcode per straight-line segment (with a parallel per-op
    cost table for the exact remainder bill on fuel exhaustion),
    terminators are fused with their edge bookkeeping (including the
    edge's Ball–Larus value for the path tracer) and with their target
    blocks' fuel charges, a branch's compare is fused with it, and each
    edge's
    instrumentation is specialized into {!pre_action}s with the frequency
    table already in hand. Register indices are validated here so the VM
    can use unchecked register accesses; an out-of-range index lowers to
    a lazily-faulting {!op.Trap}, and unknown array/routine names lower
    to opcodes raising the reference engine's exact errors. *)

type arr = { arr_name : string; data : int array }

type pre_action =
  | Set_reg of int
  | Add_reg of int
  | Bump of Instr_rt.Table.t
  | Bump_plus of Instr_rt.Table.t * int
  | Bump_const of Instr_rt.Table.t * int
  | Bump_none  (** counting action on an uninstrumented routine *)

type edge_ops = {
  edge : int;
  ends_path : bool;
  path_add : int;
      (** the edge's value in the routine's all-edges DAG
          ({!Ppp_cfg.Path_numbering.step}), added to the trace register *)
  path_restart : int;
      (** the trace register's value after a path end or cut edge
          ({!Ppp_cfg.Path_numbering.restart}); [-1] on other edges *)
  acts : pre_action array;
  acts_cost : int;  (** precomputed total {!Cost.action} of the list *)
  act_kinds : int array;  (** {!Instr_rt.action_index} per action *)
  work : int;
      (** what the edge asks of {!Vm}'s [traverse], as bits:
          {!work_tracer}, {!work_actions} and {!work_chord}. A run
          traverses the edges whose [work] shares a bit with its mask,
          so one load and one test per edge serve every profiling
          mode. *)
}

val work_tracer : int
(** The path tracer has work on the edge: a non-zero [path_add], a path
    end or a cut. Set in every stream; only a run that traces paths
    reads it. *)

val work_actions : int
(** The edge's [acts] is non-empty. Set by specialization, so only an
    instrumented variant carries it. *)

val work_chord : int
(** The edge is a chord of the routine's [chords] tree. Set only in a
    run that counts edges without tracing paths, and there in every
    variant: the instrumented and plain streams and every tier-up
    generation. Such a run counts an edge only when it crosses a chord
    (or an edge with actions); {!Vm} solves the tree edges at the end. *)

(** A conditional branch's two arms: each target's offset, the [count]
    and [cost] of the {!op.Fuel} op that opens it ([max_int] when a
    [Call] opens it), and the edge's bookkeeping. A fused op and its
    [Branch_r] share one. *)
type branch = {
  then_ : int;
  then_count : int;
  then_cost : int;
  then_edge : edge_ops;
  else_ : int;
  else_count : int;
  else_cost : int;
  else_edge : edge_ops;
}

(** One opcode. A {e segment} is the straight-line run of ops one
    {!op.Fuel} charges: a block's ops up to and including its
    terminator, or up to a [Call], which charges for itself.

    Three kinds of opcode exist only to dispatch less:
    - the four hottest binop shapes ([Add_ri], [And_ri], [Sub_ri],
      [Add_rr]) each have their own opcode;
    - a segment whose last binop ([Bin_rr]/[Bin_ri]) writes the register
      its [Branch_r] tests ends in a {e fused} op ([Cbr_rr]/[Cbr_ri]) in
      the binop's slot. It writes [dst], then takes the [Branch_r]'s
      branch. The [Branch_r] keeps its own slot after it, so [v_code],
      [v_costs] and [v_offsets] stay parallel, {!Layout} charges every
      branch where it was, and fuel exhaustion still bills and executes
      op by op (there a fused op runs as its binop, and the charged
      terminator is never executed). Every pass that rewrites a
      [Branch_r] rebuilds its fused op from it, so the two always share
      one {!branch} record;
    - every transfer within a routine ([Jump], [Branch_r],
      [Branch_const] and the fused ops) carries, per target, the
      [count] and [cost] of the [Fuel] op that opens the target block,
      or [max_int] for a block a [Call] opens. {!Vm} charges that fuel
      at the transfer and lands past the [Fuel] op when the fuel left
      exceeds [count]; otherwise it lands on the [Fuel] op, whose exact
      remainder bill stays the only one. *)
type op =
  | Fuel of { count : int; cost : int }
      (** charge the next [count] ops (total [cost]) in one update *)
  | Mov_i of { dst : int; imm : int }
  | Mov_r of { dst : int; src : int }
  | Add_ri of { dst : int; a : int; imm : int }
  | And_ri of { dst : int; a : int; imm : int }
  | Sub_ri of { dst : int; a : int; imm : int }
  | Add_rr of { dst : int; a : int; b : int }
  | Bin_rr of { dst : int; op : Ppp_ir.Ir.binop; a : int; b : int }
  | Bin_ri of { dst : int; op : Ppp_ir.Ir.binop; a : int; imm : int }
  | Cbr_rr of { dst : int; op : Ppp_ir.Ir.binop; a : int; b : int; br : branch }
  | Cbr_ri of { dst : int; op : Ppp_ir.Ir.binop; a : int; imm : int; br : branch }
      (** a binop fused with the [Branch_r] in the next slot, whose
          [cond] is [dst] and whose [br] it shares *)
  | Bin_ir of { dst : int; op : Ppp_ir.Ir.binop; imm : int; b : int }
  | Bin_ii of { dst : int; op : Ppp_ir.Ir.binop; ia : int; ib : int }
  | Load_r of { dst : int; data : int array; arr : arr; idx : int }
  | Load_i of { dst : int; data : int array; arr : arr; idx : int }
  | Store_rr of { data : int array; arr : arr; idx : int; src : int }
  | Store_ri of { data : int array; arr : arr; idx : int; imm : int }
  | Store_ir of { data : int array; arr : arr; iidx : int; src : int }
  | Store_ii of { data : int array; arr : arr; iidx : int; imm : int }
      (** [data == arr.data]: the backing array is inlined in the opcode
          so the hot path skips one indirection; [arr] carries the name
          and is only touched on a bounds error *)
  | Out_r of { src : int }
  | Out_i of { imm : int }
  | Call of {
      dst : int;
      callee : int;
      arg_regs : int array;
      arg_vals : int array;
    }
      (** [dst = -1] discards the result; [callee] is a plan index.
          Argument [i] comes from register [arg_regs.(i)] when that is
          [>= 0], else from the immediate [arg_vals.(i)]. *)
  | Unknown_array of { name : string }
  | Unknown_routine of { name : string }
  | Trap of { msg : string }
  | Jump of { target : int; count : int; cost : int; edge : edge_ops }
      (** [count] and [cost]: the target block's opening [Fuel] op *)
  | Branch_r of { cond : int; br : branch }
  | Branch_const of { target : int; count : int; cost : int; edge : edge_ops }
  | Return_r of { src : int; edge : edge_ops }
  | Return_i of { imm : int; edge : edge_ops }
  | Return_none of { edge : edge_ops }

(** One lowered body of a routine. A plan carries a whole table of
    these: the [Instrumented]/[Plain] pair produced by specialization
    (identical length, offsets and costs — only terminator actions
    differ, so bursty sampling swaps a frame between them mid-run with
    every pc still valid), plus any [Optimized] generations minted by
    {!tier_up} (full re-lowerings under a hot-path-first block order
    with instrumentation stripped; same block set and per-block opcode
    runs, so a frame crosses onto one at any block boundary by mapping
    its position through the two [v_offsets] tables). *)
type variant_kind = Instrumented | Plain | Optimized of int

type variant = {
  v_kind : variant_kind;
  v_code : op array;
  v_costs : int array;  (** per-op charge, parallel to [v_code] *)
  v_offsets : int array;  (** block index -> offset of its first op *)
}

type plan = {
  routine : Ppp_ir.Ir.routine;
  view : Ppp_ir.Cfg_view.t;
  mutable variants : variant array;
      (** every lowered body of this routine, indexed as {!Resolve}
          numbers streams: variant {!Resolve.instr} is the stream a
          frame enters while collecting (the plain one, when the routine
          is uninstrumented), then comes the plain variant, then the
          generation {!tier_up} appends *)
  v_plain : int;  (** the structural (uninstrumented) stream *)
  r_id : int;  (** this routine's plan index in its program *)
  nregs : int;
  edge_counts : Ppp_profile.Edge_profile.t option;
      (** live edge counters: only when the run counts edges without
          tracing paths (a tracing run derives its edge counts). They
          count the chords of [chords]; the tree edges are solved from
          them when the run ends. *)
  chords : Ppp_cfg.Spanning_tree.t option;
      (** only with [edge_counts]: a maximum spanning tree of the CFG
          weighted by {!Ppp_profile.Static_est} (uniform when the
          estimate cannot weigh the routine), with the virtual
          [exit -> entry] edge forced in. Its chords carry
          {!work_chord}. *)
  paths : Path_counts.t option;  (** traced path counts, when tracing *)
}

type program = {
  plans : plan array;
  index : (string, int) Hashtbl.t;
  main : int;
  arrays : (string, arr) Hashtbl.t;
}

(** {2 Block layout} *)

val valid_order : nblocks:int -> int array -> bool
(** [valid_order ~nblocks order] holds when [order] is a permutation of
    [0 .. nblocks-1] with the entry block first — the only orders the
    lowering will honor ([order.(0) = 0] keeps every frame's first opcode
    at offset 0, the invariant {!Vm} starts frames on). Invalid orders
    are ignored defensively, never an error: layout is a hint. *)

val is_identity_order : int array -> bool
(** Whether [order] is [0; 1; ...; n-1] — i.e. source order, the layout
    every routine gets without a hint. Identity orders are normalized to
    "no layout" so structurally cached plans are shared. *)

val genuine_order : nblocks:int -> int array -> bool
(** A valid order other than source order: the only layout hint the
    lowering applies, and the only tier-up order that mints a new
    generation ({!Resolve}). *)

(** {2 Structural-plan cache}

    Lowering is split into a {e structural} half (the full opcode array
    with empty instrumentation actions — pure in the routine body) and a
    {e specialization} step that rebuilds only the transfer opcodes
    (terminators and fused ops) to attach a run's instrumentation
    pre-actions. A cache memoizes
    structural plans across runs, keyed by routine name and validated by
    ([Ppp_resilience.Fingerprint.routine], [nregs], environment
    signature); the environment signature covers the routine name order
    and the array set, because Call opcodes embed callee plan indices
    and Load/Store opcodes embed backing-array refs. Mutable run state
    (array contents, edge counters, path count tables) is recreated or wiped
    per run, so cached runs are byte-identical to cold ones. A run that
    counts edges without tracing paths also takes each routine's chord
    tree and chord-marked stream from its cache entry, made by the first
    such run; a structural lowering computes no tree.

    Cache traffic is observable through the [session.lower.*] metrics:
    [hit], [miss] (also counted for uncached runs — a cold run is all
    misses), [specialize], and [env_flush]. *)

type cache

val create_cache : unit -> cache

val set_analysis : cache -> (Ppp_ir.Ir.routine -> Ppp_ir.Cfg_view.t * Ppp_cfg.Loop.t) -> unit
(** Provide the CFG view and loop nest for routines being lowered, so a
    session's memoized analyses are reused instead of recomputed on a
    structural miss. The callback must return artifacts for exactly the
    routine given. *)

val tracing : ?cache:cache -> plan -> Ppp_cfg.Path_numbering.tracing
(** The path tracer's numbering of the plan's routine, rebuilt (plans
    hold only its per-edge values): decodes the numbers in [paths]. *)

val program :
  ?cache:cache ->
  config:Engine.config ->
  instr_tables:Instr_rt.state ->
  Ppp_ir.Ir.program ->
  program
(** Lower every routine, reusing structural plans from [cache] when
    their fingerprints still match. Raises {!Engine.Runtime_error} if
    [main] is unknown (matching the reference engine). *)

val structural_variant : plan -> variant
(** The plan's structural (plain) variant. *)

val tier_up : ?cache:cache -> program -> idx:int -> order:int array -> gen:int -> unit
(** Mid-run tier-up of routine [idx]: re-lower it under the genuine
    block order [order] — against the program's live arrays, so it is
    safe mid-execution — and append the result, optimized generation
    [gen], to its variant table. Frames cross onto it only when
    {!Resolve} says so, and no other routine is touched. [cache]
    supplies memoized CFG/loop analyses, never code (the order is baked
    into opcodes, so tier-up lowerings are not cached). Counts one
    [session.lower.tier_up]. *)
