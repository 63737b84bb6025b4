(** Textual serialization of profiles, so a profile collected in one run
    can drive instrumentation (or inlining) in a later one — the offline
    half of a staged optimizer.

    {2 Format v2 (written by {!save})}

    {v
      ppp-profile v2
      cfg routine=NAME fp=HEX blocks=N edges=M
      b LABEL STRICT LOOSE          (N lines: per-block hashes)
      e ID SRC DST                  (M lines: edge structure; DST -1 = exit)
      section edges crc=HEX8 lines=K
      routine NAME
      e<ID> <count>
      section paths crc=HEX8 lines=K
      routine NAME
      <count> : <edge id> <edge id> ...
      end
    v}

    The [cfg] header records each routine's {!Ppp_resilience.Fingerprint}
    and per-block hashes, so {!load} can detect a profile collected from
    an older version of the program and salvage it via
    {!Ppp_resilience.Stale_match} instead of mis-attributing counts. Each
    [section] carries a CRC-32 of its payload lines and their count, so
    corruption and truncation are detected rather than silently absorbed.
    [#] comments and blank lines are allowed anywhere, before the header
    too (inside a section they count toward [lines=K] and the CRC).

    {2 Loading}

    One parser reads the text ({!Raw.parse}), and one salvage rule moves
    a routine's counts from the CFG the dump describes onto another
    description of that routine: {!load} applies it against the program
    as compiled now, {!Raw.merge} against the merge reference and
    {!Raw.onto} against another dump's descriptions. Equal
    fingerprints keep every id that exists; differing ones re-map
    through {!Ppp_resilience.Stale_match}, keeping a path only if its
    mapped edges still chain. [load] never raises: every problem is
    classified as a {!Ppp_resilience.Diagnostic.t} — [Corrupt] (bad
    syntax, bad CRC, impossible ids), [Stale] (fingerprint mismatch),
    [Unknown_routine], or [Truncated] — and as much of the dump as
    possible is salvaged. *)

type loaded = {
  edges : Edge_profile.program;
  paths : Path_profile.program;
  diagnostics : Ppp_resilience.Diagnostic.t list;
      (** the parser's, in text order, then one [Unknown_routine] (at
          the routine's first header) or [Stale] per routine, in the
          order the routines first appear *)
  matched_fraction : float;
      (** fraction of the recorded count mass that was applied; 1.0 for a
          pristine profile, less when counts were dropped as corrupt,
          unknown, or unmatchable after a CFG change *)
  stale_routines : int;  (** routines salvaged through stale matching *)
  salvaged_counts : int;  (** count mass applied *)
  dropped_counts : int;  (** count mass dropped *)
}

val load :
  Ppp_ir.Ir.program ->
  string ->
  (loaded, Ppp_resilience.Diagnostic.t list) result
(** Parse a v2 profile dump with {!Raw.parse}, then move each routine it
    names onto the program through the salvage rule; the program's
    routines are described for matching only when the dump names them.
    [Ok] whenever anything was salvaged
    (or the dump was validly empty), with all problems in
    [loaded.diagnostics]; [Error] when there were errors and nothing
    could be salvaged — text without the format header is an [Error]
    with one diagnostic. Routines absent from the text have empty
    profiles. Paths are added in canonical order, so the loaded tables
    iterate alike for dumps that hold the same counts.
    When {!Ppp_obs.Metrics} is enabled, sets the
    [resilience.matched_fraction] gauge and the [resilience.counts.*]
    counters. *)

val save :
  ?edges:Edge_profile.program ->
  ?paths:Path_profile.program ->
  Format.formatter ->
  Ppp_ir.Ir.program ->
  unit
(** Write a v2 dump (header, per-routine CFG metadata, checksummed
    sections) in canonical order: routines sorted by name, edge counters
    by id, path counters lexicographically by edge list. Two dumps of
    equal profiles are byte-identical. Sections for omitted profiles are
    written empty. *)

(** {2 Raw dumps and merging}

    A {!Raw.t} is a dump held program-free: the CFG descriptions the
    text carried plus the per-routine counter tables. It is what shard
    merging operates on — any number of dumps combine into one, without
    needing the program they were collected from:

    - counts add, saturating at [max_int] (the clipped mass is reported
      as {!Raw.lost}, never silently inflated);
    - when shards disagree on a routine's CFG (a shard was collected
      from an older build), one reference description is chosen
      deterministically and the disagreeing shard's counts are re-mapped
      through the salvage rule {!load} uses, with the unsalvageable
      remainder added to [lost] and a [Stale] diagnostic recorded;
    - section CRCs are recomputed on {!Raw.save}.

    {!Raw.merge} is commutative and associative up to the canonical
    ordering of the saved text (for shards that agree on their CFGs —
    the normal case — exactly; across disagreeing CFG generations the
    reference choice is still order-independent), merging with
    {!Raw.empty} is the identity, and the count mass plus [lost] of a
    merge equals the sum over its inputs. *)

module Raw : sig
  type t

  val empty : unit -> t

  val parse : string -> t
  (** The only reader of the v2 text ({!load} reads through it too).
      Never raises; structural problems, including counter ids outside
      the dump's own CFG description, land in {!diagnostics} and the
      affected count mass in {!lost}. *)

  val of_program :
    ?edges:Edge_profile.program ->
    ?paths:Path_profile.program ->
    Ppp_ir.Ir.program ->
    t
  (** The raw form of a freshly collected profile ([lost = 0], no
      diagnostics); [save] of the program and {!save} of this raw value
      write identical bytes. A sampled collection's paths arrive already
      scaled to full-run estimates ([Instrument.decoded_profile ~denom]). *)

  val merge : t list -> t
  (** Inputs are not mutated. [merge [] = empty ()]. *)

  val onto : reference:t -> t -> t
  (** [onto ~reference t] is [t]'s counts moved onto [reference]'s CFG
      descriptions by the salvage rule {!merge} applies to each input, so
      two dumps of different program versions compare path by path.
      [reference]'s counts are not added. The result carries
      [reference]'s descriptions, and [t]'s for the routines [reference]
      does not describe; those routines keep their counts as they are.
      Its {!lost} and {!diagnostics} are [t]'s followed by the move's
      own: the unsalvageable mass, and one [Stale] warning per routine
      whose counts were re-mapped. [t] is not mutated. *)

  val merge_decayed : decay:float -> t list -> t
  (** Exponential age-weighted merge for fleets of profile generations:
      with inputs ordered oldest first, input [i] of [n] contributes its
      counts scaled by [decay ^ (n-1-i)] (each count keeps
      [floor(c * w)]; the decayed-away remainder is added to the
      {!lost} ledger, so mass + lost is conserved and total mass never
      inflates). The pre-scaled inputs then go through {!merge}
      unchanged, so cross-version inputs are still salvaged via
      {!Ppp_resilience.Stale_match}. [merge_decayed ~decay:1.0] equals
      {!merge} exactly. Inputs are not mutated.
      @raise Invalid_argument unless [0.0 < decay <= 1.0]. *)

  val rename : (string -> string) -> t -> t
  (** Rename routines (e.g. prefix them with a workload name so dumps of
      different programs can share one merged file without colliding). *)

  val save : Format.formatter -> t -> unit
  (** Canonical v2 text, CRCs recomputed. *)

  val to_string : t -> string

  val mass : t -> int
  (** Total count mass currently held (saturating sum). *)

  val lost : t -> int
  (** Count mass dropped by parsing, clipping, or failed salvage. *)

  val diagnostics : t -> Ppp_resilience.Diagnostic.t list

  (** {3 Program-free read access}

      Enough to compare two dumps path-by-path (see {!Ppp_quality})
      without either program: routine names, the stored CFG
      descriptions, and the per-routine count tables. *)

  val routines : t -> string list
  (** Every routine mentioned by any section, sorted. *)

  val desc : t -> string -> Ppp_resilience.Stale_match.cfg_desc option
  (** The stored CFG description, when the dump carried one. *)

  val iter_paths : t -> string -> (int list -> int -> unit) -> unit
  (** Iterate the routine's path counts (edge-index lists); no-op for an
      absent routine. *)

  val iter_edges : t -> string -> (int -> int -> unit) -> unit
  (** Iterate the routine's edge counts; no-op for an absent routine. *)
end

val of_raw :
  Ppp_ir.Ir.program ->
  Raw.t ->
  (loaded, Ppp_resilience.Diagnostic.t list) result
(** [of_raw p raw] is [load p (Raw.to_string raw)] without rendering or
    parsing the text: the same salvage rule, the same tables (paths added
    in the same canonical order), fraction, counts and diagnostics. The
    one difference is that an [Unknown_routine] verdict has no line, as
    there is no text to point into. [raw]'s {!Raw.lost} mass and
    {!Raw.diagnostics} are ignored, because its text does not carry
    them. This is how {!Ppp_harness.Pipeline.reoptimize} hands each
    generation's profile to the next. *)
