(** Path numbering (Figure 2, and Figure 6's smart variant) of a
    routine's hot sub-DAG, for placement.

    The numbering itself is {!Ppp_cfg.Path_numbering}, shared with the
    interpreter's path tracer; this module adds the hot-prefix counts
    that placement needs (Section 3.2). Ball–Larus order numbers a
    block's outgoing edges by increasing [NumPaths] of the target; smart
    numbering (PPP, Section 4.5) numbers them by decreasing execution
    frequency, so the hottest outgoing edge gets value 0. *)

type order = Ppp_cfg.Path_numbering.order =
  | Ball_larus
  | Freq_decreasing of (Ppp_cfg.Graph.edge -> float)

type t

val compute : Ppp_flow.Routine_ctx.t -> hot:bool array -> order:order -> t
(** [hot] is indexed by DAG edge. Nodes with no hot path to the exit must
    have had their edges pruned (as {!Cold.mark} does); their [NumPaths]
    is 0. *)

val fits : t -> bool
(** False when the hot paths outnumber an OCaml [int]: {!num_paths} is
    then [max_int] and the other values are meaningless, so such a
    routine cannot be instrumented. *)

val num_paths : t -> int
(** [N]: NumPaths at the entry node. *)

val num_paths_at : t -> Ppp_cfg.Graph.node -> int
val value : t -> Ppp_cfg.Graph.edge -> int
(** [Val] of a hot DAG edge (0 for cold edges). *)

val paths_through : t -> Ppp_cfg.Graph.edge -> int
(** Number of hot entry-to-exit paths through a DAG edge: the hot
    entry-to-[src e] prefixes times [num_paths_at (dst e)]. An edge with
    exactly one path through it is a defining edge (Section 3.2). *)

val decode : t -> int -> Ppp_cfg.Graph.edge list
(** The DAG path with the given number.
    @raise Invalid_argument if out of [\[0, N-1\]]. *)

val number_of_path : t -> Ppp_cfg.Graph.edge list -> int
(** Sum of [Val] along a hot DAG path (the path's number). *)
