(** The flat VM execution engine.

    Executes the opcode arrays produced by {!Lower}: contiguous code, a
    recycled frame array, and fuel charged once per straight-line segment
    with an exact remainder bill on exhaustion. The ground-truth tracer
    adds each edge's non-zero Ball–Larus value to a per-frame register
    and counts the path's number at its end ({!Path_counts}); paths are
    decoded to edges only when the run's [path_profile] is built. A run
    that traces paths counts no edge as it goes: its edge profile is
    derived from the decoded path counts plus the in-flight prefix of
    every frame still live at fuel exhaustion, which each frame's trace
    register recovers ({!Ppp_cfg.Path_numbering.decode_prefix}). So it
    dispatches [traverse] only on an edge with tracer work or actions
    ({!Lower.edge_ops}[.work]). A run that counts edges without tracing
    paths counts only the chords of each routine's spanning tree
    ({!Lower.work_chord}) and edges with actions; when it ends, one unit
    of flow is sunk at the block of every frame still live, and every
    tree edge is solved by flow conservation
    ({!Ppp_profile.Edge_profile.complete}).
    Byte-identical in observable behavior to the reference tree-walker —
    the differential suite in [test/test_engine_diff.ml] holds it to
    that. Use {!Interp.run}, which dispatches here by default. *)

val run :
  ?cache:Lower.cache -> config:Engine.config -> Ppp_ir.Ir.program -> Engine.outcome
(** [cache] memoizes structural lowering across runs (see {!Lower.cache}).
    @raise Engine.Runtime_error on a genuine dynamic fault. *)
