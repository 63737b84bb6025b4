(** Edge profiles: execution counts per CFG edge.

    The paper assumes edge profiles are essentially free to collect
    (Section 2 cites 0.5–3% with sampling or hardware support), so the
    interpreter collects them without charging instrumentation cost.
    The VM keeps that cost low too: a run that counts edges without
    tracing paths counts only the chords of a spanning tree and fills in
    the tree edges at the end of the run ({!complete}). *)

type t
(** Edge counts for one routine. *)

val create : nedges:int -> t
val incr : t -> Ppp_cfg.Graph.edge -> unit
val add : t -> Ppp_cfg.Graph.edge -> int -> unit
val freq : t -> Ppp_cfg.Graph.edge -> int
val total : t -> int
(** Sum of all edge counts. *)

val complete :
  t -> Ppp_cfg.Graph.t -> Ppp_cfg.Spanning_tree.t -> sinks:Ppp_cfg.Graph.node list -> unit
(** [complete t g tree ~sinks]: counts that hold only the chords of
    [tree] (a tree over every edge of the routine's CFG [g], with the
    virtual [exit -> entry] edge forced in) become the whole edge
    profile: each tree edge gets the count flow conservation forces
    ({!Ppp_cfg.Spanning_tree.solve}). [sinks] holds the block of every
    activation still in flight when the run stopped, one entry each. *)

type program
(** Edge profiles for every routine of a program, by routine name. *)

val create_program : Ppp_ir.Ir.program -> program
val routine : program -> string -> t
val routine_freq : program -> string -> Ppp_cfg.Graph.edge -> int

val entry_count : program -> Ppp_ir.Ir.program -> string -> int
(** How many times the routine was invoked: the sum of its return-edge
    frequencies (every invocation returns exactly once). *)

val program_unit_flow : program -> Ppp_ir.Ir.program -> int
(** Total program flow under the unit-flow metric: one unit per executed
    acyclic path, i.e. invocations plus back-edge traversals, summed over
    routines. Used by PPP's global cold-edge criterion (Section 4.2). *)
