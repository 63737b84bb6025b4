(** The appendix's dynamic-programming flow profiles and hot-path
    reconstruction, under the branch-flow metric.

    [Definite] flow is the minimum flow an edge profile guarantees on a
    path (Figure 14); [Potential] flow is the maximum it allows
    (Figure 15). {!reconstruct} is Figure 16 — including the confirmed
    fix: an edge's flow-value entry must match both the current frequency
    {e and} the current branch count — and, for potential flow, the two
    modifications listed below Figure 16 ([g ≥ f] selection and recursing
    with [g]). *)

type kind = Definite | Potential

type t

val compute : Routine_ctx.t -> kind -> t

val kind : t -> kind
val total : t -> metric:Ppp_profile.Metric.t -> int
(** Total flow at the entry; for [Definite] this is the routine's
    definite flow [DF(P)] — the numerator of edge-profile coverage
    (Section 6.2). *)

val reconstruct :
  t -> cutoff:int -> max_paths:int -> (Ppp_cfg.Graph.edge list * int * int) list
(** [reconstruct t ~cutoff ~max_paths] enumerates DAG paths whose flow
    value satisfies [f*b > cutoff], in decreasing [f*b] order, as
    [(dag_path, f, b)] triples ([f] is the path's unit-metric flow value).
    Stops after [max_paths] paths. For [Potential] the [g >= f]
    relaxation can make the search superlinear, so it is additionally
    bounded by an exploration budget of [1000 * max_paths] node visits;
    use {!potential_hot_paths} when completeness up to a size cap
    matters. *)

val potential_hot_paths :
  Routine_ctx.t -> max_paths:int -> (Ppp_cfg.Graph.edge list * int * int) list
(** The hottest paths of the potential-flow profile, computed by
    bottleneck thresholding rather than Figure 16's search: the potential
    of a path is the minimum frequency along it, so the paths with
    potential at least [T] are exactly the complete paths of the
    subgraph of edges with frequency at least [T]. [T] is lowered over
    the distinct edge frequencies as far as possible while the path count
    stays within [max_paths]; the result lists [(dag_path, potential,
    branches)] for every path of that subgraph. Equivalent to (a capped)
    Figure 16 up to order, but worst-case polynomial. *)

(** {2 Closed forms for concrete paths} *)

val definite_of_path : Routine_ctx.t -> Ppp_cfg.Graph.edge list -> int
(** Unit-metric definite flow of a concrete DAG path:
    [max 0 (F - Σ_e (flow(tgt e) - freq e))]. Multiply by the path's
    branch count for branch flow. *)

val potential_of_path : Routine_ctx.t -> Ppp_cfg.Graph.edge list -> int
(** Unit-metric potential flow: [min F (min_e freq e)]. *)
