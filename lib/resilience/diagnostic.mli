(** Classified, located diagnostics for everything that can go wrong
    around a profile's lifetime: loading a dump that is corrupt, stale or
    truncated, salvaging counts across a program edit, and runtime
    degradation (fuel exhaustion, table saturation).

    The point (following the ROADMAP's production posture, and stale-PGO
    systems like BOLT) is that a bad profile must never crash the
    optimizer: every problem becomes a value the pipeline can report and
    route around. *)

type kind =
  | Corrupt  (** malformed syntax, bad checksum, impossible ids *)
  | Stale  (** CFG fingerprint mismatch: profile from an older program *)
  | Unknown_routine  (** the program has no routine of that name *)
  | Truncated  (** the dump ends before its declared payload does *)
  | Exhausted  (** the interpreter ran out of fuel; results are partial *)
  | Saturated  (** a runtime frequency table hit its overflow bound *)
  | Shard_lost
      (** a parallel collection worker died before delivering its shard;
          the merge proceeds without it *)
  | Io  (** an operating-system I/O failure, reported instead of raised *)
  | Unreachable
      (** the resident daemon could not be reached (socket missing,
          connection refused, handshake failed) *)
  | Deadline_exceeded
      (** a request (or a supervised worker serving it) overran its
          wall-clock deadline and was abandoned *)
  | Degraded
      (** the daemon path failed and the client fell back to the
          in-process path; the result is still correct, only slower *)
  | Quarantined
      (** a persistent-store entry failed validation on reopen and was
          moved aside rather than served *)

type severity =
  | Warning  (** data was salvaged or degraded, the phase continued *)
  | Error  (** the affected data was dropped entirely *)

type t = {
  kind : kind;
  severity : severity;
  line : int option;  (** 1-based line in the offending text, if located *)
  token : string option;  (** the offending token, if any *)
  routine : string option;
  message : string;
}

val make :
  ?severity:severity ->
  ?line:int ->
  ?token:string ->
  ?routine:string ->
  kind ->
  string ->
  t
(** [make kind msg] builds a diagnostic (default severity [Error]) and
    bumps the matching [resilience.diag.*] metric when {!Ppp_obs.Metrics}
    is enabled. *)

val errorf :
  ?severity:severity ->
  ?line:int ->
  ?token:string ->
  ?routine:string ->
  kind ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val kind_name : kind -> string
(** Lower-case stable name, e.g. ["corrupt"], ["unknown-routine"]. *)

val is_error : t -> bool
val count_errors : t list -> int

val pp : Format.formatter -> t -> unit
(** One line: [error: corrupt: line 12 ("e9x") malformed edge
    counter (routine foo)]. *)

val pp_list : Format.formatter -> t list -> unit
(** One diagnostic per line; prints nothing for []. *)

val to_json : t -> Ppp_obs.Jsonx.t
val list_to_json : t list -> Ppp_obs.Jsonx.t

val of_json : Ppp_obs.Jsonx.t -> t
(** Inverse of {!to_json}; an unknown kind reads as [Io] and a missing
    severity as [Error], so a reply from another build still prints.
    Bumps the kind's metric like {!make}. *)

val list_of_json : Ppp_obs.Jsonx.t -> t list
(** Inverse of {!list_to_json}; [[]] for anything but an array. *)
