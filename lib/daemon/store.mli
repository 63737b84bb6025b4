(** The daemon's persistent, content-validating artifact store.

    Entries are (kind, key) pairs holding opaque byte payloads — the
    daemon's encoded replies, which carry v2 profile dumps and optimized
    program text — laid out one file per entry under [dir/objects/] as
    [<kind>-<fnv64(key) in hex>.obj]. Each file is self-describing:

    {v
      ppp-store v1 kind=K key=<hex of key> len=N crc=XXXXXXXX\n
      <N payload bytes>\n
    v}

    so the directory scan, not the journal, is the source of truth on
    reopen. Every mutation is atomic (same-directory temp file, fsync,
    rename) and also appended to [dir/journal.log] — an audit trail whose
    lines carry their own CRC, salvaged (torn tail truncated) on reopen.

    The discipline throughout is {e never raise, never serve wrong
    bytes}: a payload is CRC-checked on every [get], and any entry that
    fails validation — on reopen or on read — is moved to
    [dir/quarantine/] and reported as a [Quarantined] diagnostic rather
    than returned. I/O failures become [Io] diagnostics. *)

type t

val open_store : dir:string -> t * Ppp_resilience.Diagnostic.t list
(** Create [dir] (and [objects/], [quarantine/]) as needed, sweep stale
    temp files, validate every object file (quarantining failures),
    salvage the journal, and return the store with the diagnostics of
    everything that was wrong. Never raises. *)

val keep_kinds : t -> kinds:string list -> Ppp_resilience.Diagnostic.t list
(** Move every entry whose kind is not in [kinds] to [dir/quarantine/]
    under its own file name, so that no later open reads it, and return
    one [Quarantined] warning for them all ([[]] when there were none).
    They leave {!entries}; {!quarantined}, which counts entries that
    failed validation, does not count them. *)

val put : t -> kind:string -> key:string -> string ->
  (unit, Ppp_resilience.Diagnostic.t) result
(** Atomically persist an entry, replacing any previous payload for the
    same (kind, key). Writing an identical payload is a no-op. *)

val get : t -> kind:string -> key:string -> string option
(** Re-validates the payload's CRC on every read; a mismatch quarantines
    the entry and returns [None] (the diagnostic is queued, see
    {!drain_diagnostics}). *)

val mem : t -> kind:string -> key:string -> bool

val entries : t -> (string * string * int) list
(** [(kind, key, payload length)] of every live entry, sorted. *)

val quarantined : t -> int
(** Entries quarantined since the store was opened (including reopen-time
    sweeps). *)

val drain_diagnostics : t -> Ppp_resilience.Diagnostic.t list
(** Diagnostics accumulated by [get]/[put] since the last drain. *)

val close : t -> unit

val dir : t -> string
