(** Profile-quality analytics.

    Compares two decoded path profiles — measured vs measured, a
    method's estimate vs the measured truth, this program version vs the
    last one — and quantifies agreement:

    - {!overlap}: the weighted-overlap percentage (sum over paths of the
      minimum normalized weight), the standard profile-quality metric;
    - {!hot_report}: precision/recall/flow-coverage of the hot-path set
      at a configurable hotness threshold;
    - {!divergence}: per-routine total-variation distance, localizing
      {e where} two profiles disagree;
    - {!composite}: one confidence-discounted score for dashboards.

    Profiles are normalized on construction, so runs of different
    lengths compare on shape alone. Dumps of {e different program
    versions} are made comparable before construction, by moving one
    onto the other's CFG descriptions with
    {!Ppp_profile.Profile_io.Raw.onto}: the salvage rule every reader
    of a stale dump applies. *)

type t
(** A normalized weighted path profile: (routine, path) -> weight. *)

type key = string * int list
(** Routine name and path as raw CFG edge indices. *)

(** {2 Construction} *)

val of_weighted : (key * int) list -> t
(** Weights of the same key accumulate (saturating); non-positive
    weights are ignored. *)

val of_path_profile :
  views:(string -> Ppp_ir.Cfg_view.t) ->
  metric:Ppp_profile.Metric.t ->
  Ppp_profile.Path_profile.program ->
  t
(** A measured profile, weighted by [metric] (branch flow reproduces the
    paper's accounting). *)

val of_estimates : Ppp_flow.Score.est list -> t
(** A method's estimated profile, as produced by
    {!Ppp_harness.Pipeline.evaluate} ([evaluation.estimated]). *)

val of_dump : metric:Ppp_profile.Metric.t -> Ppp_profile.Profile_io.Raw.t -> t
(** A saved dump, program-free: branch counts come from the dump's own
    CFG descriptions (routines without one fall back to unit flow). *)

(** {2 Access} *)

val total : t -> int
(** Total weight mass (saturating). *)

val distinct : t -> int
(** Number of distinct (routine, path) keys. *)

val iter : t -> (routine:string -> path:int list -> int -> unit) -> unit

(** {2 Scores} *)

val overlap : t -> t -> float
(** Weighted overlap percentage in [0, 100]: sum over the key union of
    [min] of the two normalized weights, times 100. Symmetric; 100.0 for
    identical shapes (including two empty profiles); 0.0 when either
    side is empty but not both, or when the supports are disjoint. *)

type hot_report = {
  threshold : float;  (** fraction of total flow a hot path must carry *)
  hot_ref : int;  (** hot paths of the reference *)
  hot_cand : int;  (** hot paths of the candidate *)
  matched : int;  (** reference hot paths also hot in the candidate *)
  precision : float;  (** matched / hot_cand (1.0 when no candidates) *)
  recall : float;  (** matched / hot_ref (1.0 when no reference) *)
  flow_coverage : float;
      (** fraction of the reference's hot flow on paths the candidate
          saw at all (hot or not) *)
}

val hot_report :
  ?threshold:float -> reference:t -> candidate:t -> unit -> hot_report
(** Default [threshold] 0.00125, the paper's Section 8.1 hotness bar. *)

val divergence : t -> t -> (string * float) list
(** Per-routine total-variation contribution (half the L1 distance of
    whole-profile-normalized weights), most-divergent first, ties by
    name. Sums to {!total_divergence}. *)

val total_divergence : t -> t -> float
(** Global total-variation distance in [0, 1]; 0 iff identical shapes. *)

val composite : ?confidence:float -> reference:t -> candidate:t -> unit -> float
(** [confidence * (0.5*overlap + 0.3*hot flow-coverage +
    0.2*(1 - total divergence))], each term in [0, 1]. [confidence]
    defaults to 1.0 (use a stale-salvage matched fraction when the
    candidate came through one). *)

(** {2 JSON} *)

val comparison_json : ?confidence:float -> reference:t -> candidate:t -> unit -> Ppp_obs.Jsonx.t
(** The full comparison as one object: overlap, hot report, per-routine
    divergence, composite, and size stats. *)
