(** Natural loops.

    A back edge is an edge [tail -> header] whose header dominates its
    tail. The natural loop of a back edge is the header plus all nodes
    that reach the tail without passing through the header. Retreating
    edges that are not back edges (irreducible control flow) are reported
    separately; DAG conversion breaks them too, but they head no natural
    loop. *)

type loop = {
  header : Graph.node;
  back_edges : Graph.edge list; (* all back edges targeting [header] *)
  body : Graph.node list; (* includes the header *)
}

type t

val compute : ?dom:Dom.t -> Graph.t -> root:Graph.node -> t
(** [dom], when given, must be the dominator tree of [g] rooted at
    [root]; passing it avoids recomputing it (analysis caches hold both
    artifacts separately). *)

val loops : t -> loop list
(** All natural loops, one per header (back edges sharing a header are
    merged into a single loop). *)

val is_back_edge : t -> Graph.edge -> bool

val irreducible_edges : t -> Graph.edge list
(** Retreating edges that are not back edges. Empty for reducible CFGs. *)

val breakable_edges : t -> Graph.edge list
(** All edges that must be broken to make the reachable subgraph acyclic:
    back edges plus irreducible retreating edges. *)

val depth : t -> Graph.node -> int
(** Loop-nesting depth: 0 outside any loop. *)

val avg_trip_count : t -> loop -> freq:(Graph.edge -> int) -> float
(** Average iterations per loop entry under the given edge profile:
    [back-edge frequency / entry frequency + 1]. Infinite (max_float) when
    the loop is never entered but its back edge runs, 0 if never run. *)
