(** A minimal JSON value type with a printer and a parser.

    The observability sinks (metrics snapshots, Chrome trace events,
    [BENCH_*.json]) need structured output, and the tests need to check
    that what we wrote is well-formed; neither warrants an external
    dependency, so this is the whole of JSON that we use: no streaming,
    no numbers beyond OCaml [int]/[float], object fields kept in
    insertion order. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact rendering with no insignificant whitespace, printed into one
    buffer. Non-finite floats render as [null] and strings are escaped
    to pure ASCII ([\u00XX] for bytes outside the printable range), so
    output is always standard JSON whatever bytes the values carry. *)

val pp : Format.formatter -> t -> unit
(** [to_string]'s text on a formatter. *)

val of_string : string -> t
(** The round trip is exact for strings: [of_string (to_string (Str s))]
    is [Str s] for every byte string [s], since [\u0000] to [\u00ff]
    decode to that byte. A code point above [0xff] decodes to ['?'].
    Floats come back rounded to 12 significant digits, as [Int] when
    that leaves a whole number written without a point.
    @raise Parse_error on malformed input, with the byte offset where
    parsing stopped. *)

val member : t -> string -> t option
(** [member (Obj _) key] looks up a field; [None] for other
    constructors or missing keys. *)

val to_list : t -> t list
(** [to_list (Arr l)] is [l]; [[]] otherwise. *)

val canonical : t -> t
(** Recursively sort every object's fields by key (stably, so duplicate
    keys keep their relative order). Two structurally equal documents
    render byte-identically after canonicalization — what the sharded
    benchmark harness relies on for [BENCH_*.json] stability across
    [-j] levels. *)
