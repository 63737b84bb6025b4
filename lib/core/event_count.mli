(** Ball's event-counting reassignment of edge values (Section 3.1).

    Takes a maximum-weight spanning tree of the (undirected view of the)
    hot sub-DAG from {!Ppp_cfg.Spanning_tree} (the tree the VM's edge
    counters use too) and moves all increments onto its chords, so
    predicted high-frequency edges carry no instrumentation. Weight ties
    go to the higher edge id. This module keeps only what is particular
    to path numbering: the node potentials and the chord increments.
    With node potentials
    [phi] computed over the tree (crossing a tree edge [u -> v] adds
    [Val]), each chord gets [inc = Val + phi(src) - phi(dst)], and every
    entry-to-exit path satisfies

    {v Σ Val(e) = phi(exit) + Σ inc(e) v}

    so initializing the path register to [phi(exit)] instead of 0 keeps
    every path number unchanged. The conceptual [exit -> entry] dummy of
    the original algorithm is exactly this initialization and is never
    materialized.

    PP and TPP weight the tree with the static heuristic profile; PPP's
    smart numbering (Section 4.5) uses the measured edge profile. *)

type t

val compute :
  Ppp_flow.Routine_ctx.t ->
  hot:bool array ->
  numbering:Numbering.t ->
  weight:(Ppp_cfg.Graph.edge -> float) ->
  t

val init : t -> int
(** [phi(exit)]: the value the path register starts from. *)

val inc : t -> Ppp_cfg.Graph.edge -> int
(** Increment of a hot DAG edge; 0 on spanning-tree edges. *)

val is_chord : t -> Ppp_cfg.Graph.edge -> bool

val sum_along : t -> Ppp_cfg.Graph.edge list -> int
(** [init t + Σ inc]: must equal the Figure-2 path number (property
    tested). *)
