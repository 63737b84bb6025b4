(** The paper's tables and figures, and the bench's per-benchmark
    sections.

    The table functions print one table or figure's data in rows
    matching the paper's layout, with INT / FP / overall averages where
    the paper has them. All take the prepared benchmarks (see
    {!Pipeline.prepare}), so one expensive preparation can feed every
    report. *)

type prepared_bench = {
  spec : Ppp_workloads.Spec.bench;
  prep : Pipeline.prepared;
}

val prepare_all :
  ?scale:int -> ?names:string list -> ?cache:bool -> unit -> prepared_bench list
(** Build and prepare the (selected) benchmarks; default scale 1 and all
    benchmarks. Each benchmark gets its own {!Ppp_session.Session}
    (reachable as [prep.session]) shared by every later evaluation;
    [cache:false] runs with disabled sessions — same results, no
    memoization. *)

type evals = {
  edge : Pipeline.evaluation;
  pp : Pipeline.evaluation;
  tpp : Pipeline.evaluation;
  ppp : Pipeline.evaluation;
}
(** One full evaluation pass (edge profiling plus the three path
    profilers) for a benchmark. *)

val evals_of : prepared_bench -> evals
(** The [methods] section's compute: every method evaluated once per
    benchmark name; Figures 9–13, the JSON and [pppc report] share it. *)

val layout_of : prepared_bench -> Pipeline.layout_eval
(** The [layout] section's compute — source order vs the oracle layout
    vs each method's estimated layout, plus the closed superblock+layout
    loop — derived from the {!evals_of} estimates, once per benchmark
    name. *)

(** {2 Sections}

    Each measurement the bench records per benchmark, described once:
    {!sections} drives the bench's text output, its JSON rows and
    {!Gate}. In order:

    - [methods]: overhead / accuracy / coverage of edge, PP, TPP and PPP;
    - [layout]: taken-transfer / locality proxy scores of each method's
      layout and of the closed superblock+layout loop;
    - [sampling]: PPP under bursty sampled collection at rates 1, 1/4,
      1/16, 1/64 and 1/256 (fixed seed);
    - [tiered]: one run with the {!Ppp_interp.Tier} controller armed —
      swap counts, retired instrumentation cost, installed-layout proxy
      scores;
    - [drift]: per-generation decision stability of the re-optimization
      loop on pristine profiles vs on a sampled store merged with
      exponential decay (fixed seed and decay);
    - [throughput]: Minstr/s of the VM and the reference engine;
    - [prepare]: preparation wall-clock per phase.

    The first five are deterministic, so they are safe in a document
    that must be byte-identical at every [-j]; the last two are
    [wall_clock]. *)

type bound = Floor | Ceiling
(** A [Floor] regresses by sinking below the baseline, a [Ceiling] by
    rising above it. *)

type section = {
  name : string;  (** the JSON key and the bench's command-line name *)
  wall_clock : bool;  (** nondeterministic: refused under [-j] *)
  json : prepared_bench -> Ppp_obs.Jsonx.t;
  render : Format.formatter -> prepared_bench list -> unit;
  bounds : (string * (Ppp_obs.Jsonx.t -> float option) * bound) list;
      (** gate metric name and its getter over this section's object *)
  floor : ((string * Ppp_obs.Jsonx.t) list -> (string, string) result) option;
      (** absolute floor over every benchmark's (name, section object) in
          the assembled document; both outcomes carry a summary line *)
}
(** [json] and [render] share one compute per benchmark name. *)

val sections : section list

val find_section : string -> section option

val select : string list -> section list
(** [methods], [layout] and the named sections, in {!sections} order. *)

val num : Ppp_obs.Jsonx.t -> string list -> float option
(** The number (int or float) at a path of object keys, if any. *)

val bench_json_one : ?sections:section list -> prepared_bench -> Ppp_obs.Jsonx.t
(** One benchmark's row of the [BENCH_*.json] document: name, kind,
    dynamic counts, and one object per section (default [select []]) —
    what a shard worker computes and sends back under [-j]. *)

val bench_json_wrap : ?scale:int -> ?seed:int -> Ppp_obs.Jsonx.t list -> Ppp_obs.Jsonx.t
(** Assemble {!bench_json_one} rows (in benchmark order) into the full
    document; [seed] records the PRNG seed a sharded run derived its
    per-item seeds from. *)

(** {2 The paper's tables and figures} *)

val table1 : Format.formatter -> prepared_bench list -> unit
(** Dynamic path characteristics with and without inlining and
    unrolling. *)

val table2 : Format.formatter -> prepared_bench list -> unit
(** Distinct paths; hot paths and their flow at the 0.125% and 1%
    thresholds. *)

val fig9_10_11 : Format.formatter -> prepared_bench list -> unit
(** Accuracy (Figure 9), coverage (Figure 10) and fraction of dynamic
    paths instrumented with the hashed portion (Figure 11) for edge
    profiling, PP, TPP and PPP — they share one evaluation pass, so they
    are printed together. *)

val fig12 : Format.formatter -> prepared_bench list -> unit
(** Runtime overheads of PP, TPP and PPP. *)

val fig13 : Format.formatter -> prepared_bench list -> unit
(** Leave-one-out ablation of PPP's techniques, normalized to TPP, on
    the benchmarks where PPP improves on TPP by more than 5% of TPP's
    overhead (the paper's selection rule). *)

val section8_1 : Format.formatter -> prepared_bench list -> unit
(** The prose numbers of Section 8.1: average edge-profile accuracy and
    attribution (coverage). *)
