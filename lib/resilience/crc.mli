(** CRC-32 (IEEE 802.3, the zlib polynomial) over strings: the
    per-section checksums of the v2 profile format, daemon wire frames,
    and store objects and their journal lines. A checksum, not a
    digest: a few chosen bytes give any text any CRC, so a store key
    that must tell contents apart uses MD5 ([Digest]). Self-contained
    so the profile reader needs no external dependency to validate a
    dump. Table-driven, eight bytes per step (slice-by-8). *)

val string : string -> int32
(** CRC-32 of the whole string ([0l] for the empty string). *)

val substring : string -> int -> int -> int32
(** [substring s pos len] is [string (String.sub s pos len)] without the
    copy.
    @raise Invalid_argument if the range is not within [s]. *)

val update : int32 -> string -> int32
(** [update crc s] extends a finalized CRC with more bytes:
    [update (string a) b = string (a ^ b)]. *)

val to_hex : int32 -> string
(** Fixed-width lowercase hex, 8 characters. *)

val of_hex : string -> int32 option
