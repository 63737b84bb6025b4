(** The daemon's frame protocol: length-prefixed, versioned, CRC-framed
    messages over a byte stream (a Unix-domain socket, or the socketpair
    between the server and a supervised worker).

    {v
      offset  size  field
      0       4     magic "PPPD"
      4       1     protocol version (1)
      5       4     payload length, big-endian
      9       4     CRC-32 of the payload, big-endian
      13      len   payload bytes
    v}

    Every read and write is EINTR-safe and short-transfer tolerant
    ({!Ppp_resilience.Robust_io}) and bounded by an optional absolute
    deadline, so a stalled or malicious peer costs bounded time, never a
    hung process. A frame that fails validation (bad magic, unsupported
    version, oversized length, checksum mismatch) is classified as
    [Corrupt] — the connection is then unusable (the stream cannot be
    resynchronized) and should be closed. *)

type error =
  | Closed  (** the peer closed (or reset) the connection *)
  | Timeout  (** the deadline passed before the frame completed *)
  | Corrupt of string  (** framing violation; close the connection *)

val version : int

val write_frame :
  ?deadline:float -> Unix.file_descr -> string -> (unit, error) result

val read_frame :
  ?deadline:float -> Unix.file_descr -> (string, error) result

val error_message : error -> string

