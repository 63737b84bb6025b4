(** Hotness controller for tiered in-VM re-optimization.

    A tiered run starts every instrumented routine in its instrumented
    lowered variant. The controller watches per-routine trips (frame
    entries plus path-ending loop back edges, recorded in a
    {!Telemetry.Trips} table until the routine's decision); when a
    routine's trip count reaches the threshold it "fires": the engine
    gathers the routine's live path counters, the planner distils them
    into a hot-path-first block order, {!Lower.tier_up} re-lowers just
    that routine, and the plan's current-variant slot swaps so the next
    frame entry (or the current frame, at its next loop back edge — the
    OSR point) executes optimized, uninstrumented code.

    The controller is engine-agnostic: its state depends only on the
    sequence of {!trip}/{!fire} calls, which the VM and the reference
    tree-walker issue at the same program points. Tier decisions are
    therefore engine-invariant, which the differential suite checks.

    Terminology: a {e tier-up swap} permanently retires a routine's
    instrumented variant for an optimized generation; {!Sampling}'s
    burst re-decision toggles between the instrumented and plain
    variants of the {e same} generation. Both resolve through the one
    variant-resolution point in {!Vm}. *)

type planner = routine:string -> counters:(int * int) list -> int array option
(** Maps a hot routine's live counters — [(path_number, raw_count)]
    pairs from its {!Instr_rt} table — to a block emission order for
    the optimized variant. [None] keeps the source order (the swap
    still strips instrumentation). *)

type spec = { threshold : int; budget : int; plan : planner option }

val default_threshold : int
(** Trips before a routine tiers up (8). *)

val default_budget : int
(** Routines allowed to tier up per run (unbounded). *)

val spec : ?threshold:int -> ?budget:int -> ?plan:planner -> unit -> spec
(** Validated constructor: [threshold >= 1], [budget >= 0]. *)

type decision = {
  d_routine : string;
  d_trips : int;  (** trip count at the moment the routine tiered up *)
  d_gen : int;  (** 1-based optimized-generation number, program-wide *)
  d_reordered : bool;  (** the planner produced a non-source block order *)
  d_order : int array option;
      (** the block order the swap installed ([None] = source order) —
          what {!Layout.program_proxy} scores after the run *)
}

type t

val start : spec -> nroutines:int -> t
(** A fresh controller for a program with [nroutines] routines. *)

val trip : t -> int -> bool
(** Record one watched event for routine [i]. [true] exactly when the
    routine must tier up now: its count just reached the threshold and
    budget remains. Crossing the threshold with the budget exhausted is
    counted once as a denial. The crossing trip is the routine's
    decision, fired or denied, and it is final: every later trip is a
    no-op that counts nothing and answers [false]. *)

val pending : t -> int -> bool
(** Routine [i]'s decision is still to come: its trip count is below
    the threshold. Once [false] it stays [false]. *)

val fire : t -> idx:int -> name:string -> counters:(int * int) list -> int array option
(** Commit the tier-up [trip] demanded: spends one budget unit, marks
    the routine tiered, consults the planner, logs the decision, and
    returns the block order for the optimized variant ([None] = source
    order). *)

val is_tiered : t -> int -> bool
val trips : t -> Telemetry.Trips.t
val decisions : t -> decision list
(** Tier-up decisions in firing order. *)

val swaps : t -> int
(** Routines tiered up so far (= optimized generations minted). *)

val note_entry_swap : t -> unit
(** A frame entered an optimized variant its routine swapped to. *)

val note_osr_swap : t -> unit
(** A live frame jumped onto the optimized variant at a back edge. *)

val flush_metrics : t -> unit
(** Flush the [tier.*] counter family: [tier.trips] (each routine's
    trips up to its decision, so at most threshold x routines),
    [tier.swaps], [tier.reorders], [tier.denied_budget],
    [tier.entry_swaps], [tier.osr_swaps]. Called once at run end when
    observation is on. *)
