(** Acyclic intraprocedural paths (Section 3.1).

    A path is the ordered list of CFG edges it traverses. Every path has
    at least one edge: a path ending at a return traverses the edge into
    the virtual exit node, and a path ending at a loop back edge includes
    that back edge (the back edge both ends the current path and starts
    the next one at the loop header). The edge list uniquely identifies
    the path within its routine. *)

type t = Ppp_cfg.Graph.edge list

val compare : t -> t -> int
(** Lexicographic by edge id, a path before its extensions. *)

val equal : t -> t -> bool

val hash : t -> int
(** A hash over every edge of the path. The polymorphic [Hashtbl.hash]
    reads only a prefix of a list, so long paths that share one collide. *)

module Tbl : Hashtbl.S with type key = t
(** Path-keyed tables, hashed by {!hash}. *)

val blocks : Ppp_ir.Cfg_view.t -> t -> int list
(** The block sequence: sources of the edges (the virtual exit never
    appears). *)

val branches : Ppp_ir.Cfg_view.t -> t -> int
(** [b_p]: the number of branch edges on the path (Section 5.1). *)

val pp : Ppp_ir.Cfg_view.t -> Format.formatter -> t -> unit
(** Renders the block-label sequence, e.g. ["entry>head1>body2"]. *)
