(** One routine's traced-path counts, keyed by Ball–Larus path number
    (see {!Ppp_cfg.Path_numbering.tracing}).

    The VM bumps a path's number at each path end; the edges are decoded
    only when the run's profile is built. Numbers are kept in the order
    of their first execution. A path that crossed cut edges — only in a
    routine with more paths than an [int] holds — is keyed by the list of
    its segment numbers instead. *)

type t

val create : unit -> t

val bump : t -> int -> unit
(** Count one execution of the path with this number. *)

val bump_segments : t -> int list -> unit
(** Count one execution of the path with these segment numbers, in
    path order. *)

val num_distinct : t -> int

val iter : t -> (int list -> int -> unit) -> unit
(** [iter t f] calls [f segments count] per distinct path: first the
    numbered paths in first-execution order (as one-segment lists), then
    the paths that crossed cuts. *)
