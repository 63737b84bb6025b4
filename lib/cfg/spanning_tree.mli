(** Maximum spanning trees of a graph's undirected view, and the flow
    solve over them: the tree behind Ball's event counting (Section 3.1)
    and behind optimal edge profiling, which counts only the edges off
    the tree (its {e chords}) and recovers every tree edge from flow
    conservation.

    PP/TPP/PPP placement ({!Ppp_core.Event_count}) builds its tree over
    a hot sub-DAG; the VM's edge counters build theirs over a routine's
    CFG with the virtual [exit -> entry] edge forced in, so the tree
    carries the invocation count too. *)

type t

val compute :
  ?force:Graph.node * Graph.node ->
  ?member:(Graph.edge -> bool) ->
  weight:(Graph.edge -> float) ->
  Graph.t ->
  t
(** Kruskal over the edges with [member] (default: every edge). The
    [force] edge [u -> v], a virtual edge that is not in the graph, goes
    into the tree first. Then the members go in by decreasing [weight],
    ties broken by the higher edge id first, each one only if it joins
    two components. So the result spans every connected component of
    the members (plus [force]); self-loops and redundant parallel edges
    become chords. *)

val in_tree : t -> Graph.edge -> bool
(** A member edge in the tree ([false] for the others). *)

val is_chord : t -> Graph.edge -> bool
(** A member edge off the tree. *)

val solve : t -> Graph.t -> ?sinks:Graph.node list -> int array -> int
(** [solve t g counts], for a tree of [g] computed with [force]: with
    [counts.(e)] the count of every edge off the tree, it overwrites each
    tree edge's count with the one flow conservation forces, whatever it
    held, and returns the forced edge's count. Each node in [sinks]
    (repeated for several units) is where one unit of flow stopped, as
    if a virtual edge took it on to the forced edge's source: a walk cut
    short there. The counts of walks from the forced edge's target,
    complete (ending at its source) or cut short, are recovered exactly.
    @raise Invalid_argument if the tree has no forced edge. *)
