(** Cold-edge identification (Sections 3.2, 4.2, 4.3) and obvious-loop
    disconnection.

    The result of {!mark} is a boolean "hot" array over DAG edges. A hot
    edge set is always {e closed}: every hot edge lies on some hot
    entry-to-exit path (edges that fail this cannot receive a unique path
    number and must poison, so they are forced cold). *)

val mark :
  Ppp_flow.Routine_ctx.t ->
  local_ratio:float option ->
  global_cutoff:int option ->
  extra_cold:Ppp_cfg.Graph.edge list ->
  bool array
(** [mark ctx ~local_ratio ~global_cutoff ~extra_cold] marks a DAG edge
    cold when its frequency is below [local_ratio] of its source block's
    flow (the TPP local criterion), or below the absolute [global_cutoff]
    (PPP's global criterion, precomputed as
    [fraction * total program unit flow]), or listed in [extra_cold],
    or stranded off every hot entry-to-exit path. When either frequency
    criterion is active, an edge with zero frequency is always cold; with
    both [None] (TPP's no-removal baseline) only [extra_cold] and closure
    apply. *)

val all_hot : Ppp_flow.Routine_ctx.t -> bool array
(** PP: every DAG edge is hot (no closure needed: well-formed routines
    have every block on an entry-to-exit path). *)

val obvious_loop_cold_edges :
  Ppp_flow.Routine_ctx.t -> trip_threshold:float -> Ppp_cfg.Graph.edge list
(** DAG edges to disconnect for every loop whose body paths are all
    obvious and whose average trip count meets the threshold
    (Section 3.2): the loop's entry dummy, its back edges' exit dummies,
    and the loop's entry and exit edges, so no instrumentation survives
    anywhere in the body. *)
