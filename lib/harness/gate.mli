(** The performance-regression gate: compare two [BENCH_*.json]
    documents (see {!Report.bench_json_one}) and report every benchmark
    metric that moved the wrong way by more than a tolerance.

    The gated metrics are the [bounds] of {!Report.sections}: for every
    benchmark and every section object both documents carry, each
    [Ceiling] (cost-model overheads, sampled overheads) fails when it
    rises more than [pct] percent above the baseline, and each [Floor]
    (layout and tiering improvements, sampled overlaps, drift stability,
    the VM/reference throughput ratio) fails when it sinks more than
    [pct] percent below it. Sampling points are matched by rate
    denominator.

    Benchmarks present in the baseline but missing from the current
    document, and schema mismatches, are failures too — a gate that
    silently compares nothing is worse than no gate. Benchmarks only in
    the current document are ignored (adding a workload is not a
    regression). *)

type failure = {
  bench : string;
  metric : string;
      (** e.g. ["ppp.overhead"], ["sampling.1/4.overhead"], or a section
          name when the whole section is missing *)
  baseline : float;
  current : float;  (** NaN when the metric is missing under strict *)
}

type warning = { bench : string; metric : string }
(** A metric the baseline carries but the current document lacks: the
    gate compared nothing for it. Reported, never silently skipped. *)

type result = { failures : failure list; warnings : warning list }

val run :
  ?strict:bool ->
  baseline:Ppp_obs.Jsonx.t ->
  current:Ppp_obs.Jsonx.t ->
  pct:float ->
  unit ->
  result
(** Full gate result. A metric regresses when it moves past [pct]
    percent of its baseline value (with a 1e-9 absolute floor, so zero
    baselines don't trip on rounding). Metrics present in the baseline
    but absent from the current document become {!warning}s; with
    [strict] (default false) they become failures (with [current = nan])
    instead. *)

val floors :
  sections:Report.section list ->
  Ppp_obs.Jsonx.t ->
  (string * (string, string) Stdlib.result) list
(** Each given section's absolute floor (see {!Report.section}) over the
    document, by section name. A section no benchmark carries fails.
    Every absolute floor is checked here, the profile-quality overlaps
    of the [quality] section included. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_failures : Format.formatter -> failure list -> unit
val pp_warning : Format.formatter -> warning -> unit
