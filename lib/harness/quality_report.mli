(** The profile-quality report behind [pppc report] (schema
    ["ppp-quality/1"]).

    For each workload: the bench's [quality] section ({!Report.quality}:
    every method's estimated profile compared against the measured truth
    with {!Ppp_quality.Quality}), the optimizer decision log (with
    generation-over-generation diffs when [iterations > 1]), and
    optionally a live VM telemetry series. The wrapper's per-method
    summary (mean and worst-workload overlap) reads the same overlaps
    the section's floor gates ({!Gate.floors}). *)

val method_names : string list
(** The four profiling methods every report covers, in presentation
    order: edge, pp, tpp, ppp. *)

val bench_row :
  ?iterations:int ->
  ?telemetry_interval:int ->
  Report.prepared_bench ->
  Ppp_obs.Jsonx.t
(** One workload's full report row: its name and kind, the fields of its
    [quality] section object, and its decision log. [iterations > 1]
    (default 1) runs {!Pipeline.reoptimize} on the original program and
    attaches per-generation decision diffs; [telemetry_interval]
    re-runs the optimized program with a snapshot ring attached and
    attaches its telemetry series, sampled every that many dynamic
    instructions ({!Ppp_interp.Telemetry.to_json}). *)

val wrap :
  ?scale:int -> ?hot_threshold:float -> Ppp_obs.Jsonx.t list -> Ppp_obs.Jsonx.t
(** The full document: schema, parameters, rows, and the summary of
    each method's mean and worst-workload overlap. *)
