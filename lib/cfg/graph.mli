(** Directed multigraphs with integer nodes and explicit edge identifiers.

    This is the structural substrate for all control-flow analyses: nodes
    stand for basic blocks (plus a virtual exit), and edges for control
    transfers. Multigraphs are required because DAG conversion (see
    {!Dag}) may add several dummy edges between the same pair of nodes. *)

type node = int
(** Nodes are dense integers in [[0, num_nodes)]. *)

type edge = int
(** Edges are dense integers in [[0, num_edges)]. *)

type t
(** A mutable directed multigraph. *)

val create : unit -> t
(** [create ()] is an empty graph. *)

val add_nodes : t -> int -> unit
(** [add_nodes g n] adds [n] fresh nodes. *)

val add_edge : t -> node -> node -> edge
(** [add_edge g u v] adds a new edge [u -> v] and returns its id.
    Parallel edges are permitted. *)

val num_nodes : t -> int
val num_edges : t -> int

val src : t -> edge -> node
val dst : t -> edge -> node

val out_edges : t -> node -> edge list
(** Outgoing edges of a node, in insertion order. *)

val in_edges : t -> node -> edge list
(** Incoming edges of a node, in insertion order. *)

val out_degree : t -> node -> int
val in_degree : t -> node -> int

val succs : t -> node -> node list
(** Successor nodes, one entry per outgoing edge (may repeat). *)

val preds : t -> node -> node list
(** Predecessor nodes, one entry per incoming edge (may repeat). *)

val iter_edges : t -> (edge -> unit) -> unit
(** Iterate over all edge ids in increasing order. *)

val fold_edges : t -> init:'a -> f:('a -> edge -> 'a) -> 'a

val iter_nodes : t -> (node -> unit) -> unit

val find_edge : t -> node -> node -> edge option
(** [find_edge g u v] is the first edge [u -> v], if any. *)

val copy : t -> t
(** Structural copy; edge and node ids are preserved. *)

val pp : Format.formatter -> t -> unit
(** Debug printer listing every edge as [src->dst]. *)
