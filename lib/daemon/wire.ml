module Robust_io = Ppp_resilience.Robust_io
module Crc = Ppp_resilience.Crc

type error = Closed | Timeout | Corrupt of string

let version = 1
let magic = "PPPD"
let header_size = 13
(* Refuse frames larger than this (64 MiB): a corrupt length prefix
   must not become an unbounded allocation. *)
let max_frame = 64 * 1024 * 1024

let put_u32 buf pos v =
  Bytes.set buf pos (Char.chr ((v lsr 24) land 0xff));
  Bytes.set buf (pos + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set buf (pos + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (pos + 3) (Char.chr (v land 0xff))

let get_u32 buf pos =
  (Char.code (Bytes.get buf pos) lsl 24)
  lor (Char.code (Bytes.get buf (pos + 1)) lsl 16)
  lor (Char.code (Bytes.get buf (pos + 2)) lsl 8)
  lor Char.code (Bytes.get buf (pos + 3))

let write_frame ?deadline fd payload =
  let len = String.length payload in
  if len > max_frame then Error (Corrupt "frame payload too large")
  else begin
    let buf = Bytes.create (header_size + len) in
    Bytes.blit_string magic 0 buf 0 4;
    Bytes.set buf 4 (Char.chr version);
    put_u32 buf 5 len;
    put_u32 buf 9 (Int32.to_int (Crc.string payload) land 0xffffffff);
    Bytes.blit_string payload 0 buf header_size len;
    match Robust_io.write_all ?deadline fd buf 0 (Bytes.length buf) with
    | `Ok -> Ok ()
    | `Closed -> Error Closed
    | `Timeout -> Error Timeout
  end

let read_frame ?deadline fd =
  let hdr = Bytes.create header_size in
  match Robust_io.really_read ?deadline fd hdr 0 header_size with
  | `Eof -> Error Closed
  | `Timeout -> Error Timeout
  | `Ok () ->
      if Bytes.sub_string hdr 0 4 <> magic then
        Error (Corrupt "bad frame magic")
      else if Char.code (Bytes.get hdr 4) <> version then
        Error
          (Corrupt
             (Printf.sprintf "unsupported protocol version %d"
                (Char.code (Bytes.get hdr 4))))
      else
        let len = get_u32 hdr 5 in
        let crc = get_u32 hdr 9 in
        if len > max_frame then
          Error (Corrupt (Printf.sprintf "oversized frame (%d bytes)" len))
        else
          let payload = Bytes.create len in
          match Robust_io.really_read ?deadline fd payload 0 len with
          | `Eof -> Error (Corrupt "frame truncated mid-payload")
          | `Timeout -> Error Timeout
          | `Ok () ->
              let payload = Bytes.unsafe_to_string payload in
              if Int32.to_int (Crc.string payload) land 0xffffffff <> crc then
                Error (Corrupt "frame checksum mismatch")
              else Ok payload

let error_message = function
  | Closed -> "connection closed by peer"
  | Timeout -> "deadline exceeded"
  | Corrupt msg -> msg

