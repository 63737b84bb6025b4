(** The PP / TPP / PPP instrumenter front end (Sections 3 and 4).

    Given a program, a prior edge profile (the "self advice" of
    Section 7.2) and a {!Config.t}, decides per routine whether and how to
    instrument, and produces both the runtime instrumentation for
    {!Ppp_interp.Interp} and the bookkeeping needed to decode measured
    counts and to classify paths as instrumented or not. *)

type reason =
  | Never_executed  (** the prior profile shows no executions *)
  | Low_coverage of float
      (** PPP Section 4.1: edge-profile coverage met the threshold *)
  | No_hot_paths  (** every edge went cold *)
  | All_obvious  (** placement eliminated every action *)
  | Too_many_paths
      (** the hot paths outnumber an OCaml [int], so no numbering fits *)

type decision =
  | Uninstrumented of reason
  | Instrumented of {
      hot : bool array;  (** DAG edge -> hot *)
      numbering : Numbering.t;
      place : Place.result;
      sa_iters : int;  (** self-adjusting iterations taken (Section 4.3) *)
      uses_hash : bool;
    }

type routine_plan = {
  routine_name : string;
  ctx : Ppp_flow.Routine_ctx.t;
  decision : decision;
}

type t = {
  config : Config.t;
  plans : (string, routine_plan) Hashtbl.t;
  rt : Ppp_interp.Instr_rt.t;  (** feed this to the interpreter *)
}

val instrument :
  ?plan_ctx:(Ppp_ir.Ir.routine -> Ppp_flow.Routine_ctx.t) ->
  ?definite:(Ppp_flow.Routine_ctx.t -> Ppp_flow.Flow_dp.t) ->
  Ppp_ir.Ir.program ->
  Ppp_profile.Edge_profile.program ->
  Config.t ->
  t
(** Plan every routine afresh under the given edge profile. The
    optional hooks let an analysis session supply memoized artifacts:
    - [plan_ctx] provides each routine's flow context (it must be built
      from the given edge profile);
    - [definite] provides the definite-flow DP of a context.
    Defaults recompute everything from scratch. *)

val has_any_instrumentation : t -> bool
(** False when no routine received any action (the paper's swim/mgrid
    case, Section 6.1). *)

(** {2 Path bookkeeping} *)

val decoded_path : routine_plan -> int -> Ppp_profile.Path.t option
(** The CFG path measured under a given path number; [None] for cold
    (out-of-range) numbers, elided obvious paths, or uninstrumented
    routines. *)

val decoded_profile :
  denom:int ->
  t ->
  Ppp_interp.Instr_rt.state option ->
  Ppp_ir.Ir.program ->
  Ppp_profile.Path_profile.program
(** [decoded_profile ~denom t state p] is the path profile an
    instrumented run of [p] measured: every live counter of [state]
    decoded through its routine's plan ({!decoded_path}), its count
    scaled by the inverse sampling rate [denom]
    ({!Ppp_interp.Instr_rt.scaled_count}; [1] for a full run). Numbers
    that decode to no path are skipped; [None] (nothing ran
    instrumented) is the empty profile. *)

val path_status :
  routine_plan -> Ppp_profile.Path.t -> [ `Instrumented of int | `Uninstrumented ]
(** Whether an acyclic CFG path is in [P_instr] (and under which number)
    or in [P_uninstr] (Section 5). *)

val static_instr_count : t -> int
(** Total number of placed instrumentation actions, for reporting. *)

val pp_plan : Format.formatter -> routine_plan -> unit
(** Human-readable dump of one routine's instrumentation: the decision,
    table kind, path count, elided obvious paths, and every edge's
    actions in the paper's notation (Figure 1(g) style). *)
