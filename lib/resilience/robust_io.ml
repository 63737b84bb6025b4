type 'a outcome = [ `Ok of 'a | `Eof | `Timeout ]

(* A deadline is absolute so retry loops never extend the total wait:
   every resumption recomputes the remaining slice. *)
let remaining deadline =
  match deadline with
  | None -> -1. (* select: wait forever *)
  | Some d -> d -. Unix.gettimeofday ()

(* Block until [fd] is readable or the absolute deadline passes; no
   deadline means wait forever. *)
let rec wait_readable ?deadline fd =
  let left = remaining deadline in
  if deadline <> None && left <= 0. then `Timeout
  else
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> if deadline = None then wait_readable ?deadline fd else `Timeout
    | _ :: _, _, _ -> `Ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable ?deadline fd

let rec wait_writable ?deadline fd =
  let left = remaining deadline in
  if deadline <> None && left <= 0. then `Timeout
  else
    match Unix.select [] [ fd ] [] left with
    | _, [], _ -> if deadline = None then wait_writable ?deadline fd else `Timeout
    | _, _ :: _, _ -> `Ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_writable ?deadline fd

(* One read of at most [len] bytes, waiting for readability first.
   [`Ok 0] never happens: end of stream is [`Eof]. *)
let rec read_once ?deadline fd buf pos len =
  match wait_readable ?deadline fd with
  | `Timeout -> `Timeout
  | `Ready -> (
      match Unix.read fd buf pos len with
      | 0 -> `Eof
      | n -> `Ok n
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
          read_once ?deadline fd buf pos len
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof)

let really_read ?deadline fd buf pos len =
  let rec go pos len =
    if len = 0 then `Ok ()
    else
      match read_once ?deadline fd buf pos len with
      | `Ok n -> go (pos + n) (len - n)
      | (`Eof | `Timeout) as r -> r
  in
  go pos len

let write_all ?deadline fd buf pos len =
  let rec go pos len =
    if len = 0 then `Ok
    else
      match wait_writable ?deadline fd with
      | `Timeout -> `Timeout
      | `Ready -> (
          match Unix.write fd buf pos len with
          | n -> go (pos + n) (len - n)
          | exception
              Unix.Unix_error
                ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              go pos len
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
              `Closed)
  in
  go pos len

let write_string ?deadline fd s =
  write_all ?deadline fd (Bytes.unsafe_of_string s) 0 (String.length s)

let rec sleep_until t =
  let left = t -. Unix.gettimeofday () in
  if left > 0. then
    match Unix.sleepf left with
    | () -> sleep_until t
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> sleep_until t

let rec waitpid_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None

let kill_quiet pid signal =
  try Unix.kill pid signal
  with Unix.Unix_error (Unix.ESRCH, _, _) -> ()
