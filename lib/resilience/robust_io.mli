(** EINTR-safe, deadline-aware wrappers around the raw [Unix] syscalls —
    the substrate every long-lived process in this repo (the shard pool,
    the [pppd] daemon, its clients) does its I/O through.

    Production collectors see exactly the failures the plain syscalls
    surface as exceptions or silent short transfers: signals interrupting
    a read ([EINTR]), pipes delivering fewer bytes than asked, peers that
    stall forever. These helpers retry interrupted calls, loop short
    transfers to completion, and bound every wait by an optional
    {e absolute} deadline ([Unix.gettimeofday]-based), so a hung peer
    becomes a [`Timeout] value instead of a hung process. *)

type 'a outcome = [ `Ok of 'a | `Eof | `Timeout ]

val really_read : ?deadline:float -> Unix.file_descr -> bytes -> int -> int ->
  unit outcome
(** Read exactly [len] bytes into [buf] at [pos], looping over short
    reads. [`Eof] if the stream ends first (the partial prefix is in
    [buf]); [`Timeout] if the deadline passes first. *)

val write_all : ?deadline:float -> Unix.file_descr -> bytes -> int -> int ->
  [ `Ok | `Closed | `Timeout ]
(** Write exactly [len] bytes, looping over short writes and retrying
    [EINTR]/[EAGAIN]. [`Closed] on [EPIPE]/[ECONNRESET] (the caller
    decides whether a dead peer is an error). Other [Unix_error]s
    propagate: they are bugs or genuine I/O failures, not liveness. *)

val write_string : ?deadline:float -> Unix.file_descr -> string ->
  [ `Ok | `Closed | `Timeout ]

val sleep_until : float -> unit
(** Sleep until an absolute time, retrying interrupted sleeps. *)

val waitpid_nohang : int -> Unix.process_status option
(** Non-blocking reap, [EINTR]-retried; [None] while still running (or
    when the pid was already reaped — callers treat both as "nothing to
    do"). *)

val kill_quiet : int -> int -> unit
(** [kill_quiet pid signal], ignoring [ESRCH] (already gone). *)
