(** Ball–Larus path numbering over a {!Dag} (Figure 2): [NumPaths] per
    node and [Val] per edge, so that the values along each entry-to-exit
    path over the chosen edges sum to a unique number in [\[0, N-1\]].

    This is the one implementation of the numbering: PP/TPP/PPP
    placement ({!Ppp_core.Numbering}) numbers a hot sub-DAG with it, and
    the interpreter's ground-truth tracer numbers every edge of a routine
    with {!tracing}. *)

type order =
  | Ball_larus
      (** a block's out-edges by increasing [NumPaths] of their target;
          ties by edge id *)
  | Freq_decreasing of (Graph.edge -> float)
      (** by decreasing frequency, so the hottest edge gets [Val 0]
          (PPP's smart numbering, Section 4.5) *)

type t

val compute : Dag.t -> hot:bool array -> order:order -> t
(** Number the paths over the edges with [hot.(e)] (indexed by DAG
    edge). A node with no such path to the exit gets [NumPaths] 0.

    Counts that do not fit in an OCaml [int] saturate at [max_int] and
    make {!fits} false; the values are then meaningless. *)

val fits : t -> bool
(** Whether every count fit in an [int]. *)

val num_paths : t -> int
(** [N]: NumPaths at the entry node ([max_int] unless {!fits}). *)

val num_paths_at : t -> Graph.node -> int

val value : t -> Graph.edge -> int
(** [Val] of a numbered DAG edge (0 for the others). *)

val decode : t -> int -> Graph.edge list
(** The DAG path with the given number.
    @raise Invalid_argument if out of [\[0, N-1\]]. *)

val number_of_path : t -> Graph.edge list -> int
(** Sum of [Val] along a DAG path (the path's number). *)

(** {2 Tracing}

    The tracer adds an edge's value to a register as it crosses the
    edge and counts the register's value at each path end, so a traced
    path costs one add per edge with a non-zero value and one counter
    bump per path: an edge whose value is 0 and that neither ends nor
    cuts a path needs no work at all. Its edges are recovered only when
    the counts are read, and a path still in flight is recovered from
    the register alone ({!decode_prefix}). *)

type tracing

val tracing :
  Graph.t -> entry:Graph.node -> exit:Graph.node -> ends:Graph.edge list -> tracing
(** Number every path of a CFG whose path-ending edges are [ends]
    (typically {!Loop.breakable_edges}). Edges out of blocks unreachable
    from [entry] are broken too, so any graph can be numbered.

    When the routine has more paths than an [int] holds, further edges
    are {e cut}: broken like a back edge, but without ending the path.
    A path that crosses cuts is then identified by the list of its
    segments' numbers, and every segment number fits. Routines whose
    count fits have no cuts. *)

val step : tracing -> Graph.edge -> int
(** The value a traversal of the CFG edge adds to the trace register. *)

val restart : tracing -> Graph.edge -> int
(** For a broken edge (path end or cut), the register's value after it:
    the [Val] of its header's entry dummy, or 0 when the header is the
    entry. [-1] for an edge that is not broken, so a broken edge outside
    [ends] is a cut. *)

val decode_segments : tracing -> int list -> Graph.edge list
(** The CFG path whose segments have the given numbers, in order; a
    path without cuts has one segment. *)

val decode_prefix : tracing -> int -> at:Graph.node -> Graph.edge list
(** [decode_prefix tr n ~at]: the CFG edges a segment in flight has
    crossed, given the register [n] it holds on reaching block [at]. The
    register continues along the Val-0 edges out of [at] to a complete
    path with the same number, so the greedy decode from the entry walks
    exactly the segment's edges until it reaches [at]. A segment that
    began at a loop header (register = {!restart}) starts with the
    header's entry dummy, which maps to no CFG edge.
    @raise Invalid_argument if [n] is out of range or names no path
    through [at]. *)
