(** Path profiles: execution (or estimated) frequencies per path. *)

type t
(** Paths and their frequencies for one routine. *)

val create : unit -> t
val record : t -> Path.t -> unit
(** Increment the path's frequency by one. *)

val add : t -> Path.t -> int -> unit
val freq : t -> Path.t -> int
val num_distinct : t -> int
val iter : t -> (Path.t -> int -> unit) -> unit
val fold : t -> init:'a -> f:('a -> Path.t -> int -> 'a) -> 'a

val total_flow : t -> Ppp_ir.Cfg_view.t -> Metric.t -> int
(** Total flow of all paths under the metric. *)

type program
(** Path profiles for every routine, by routine name. *)

val create_program : Ppp_ir.Ir.program -> program
val routine : program -> string -> t
val iter_routines : program -> (string -> t -> unit) -> unit

val program_flow :
  program -> views:(string -> Ppp_ir.Cfg_view.t) -> Metric.t -> int

val program_distinct : program -> int

val hot_paths :
  program ->
  views:(string -> Ppp_ir.Cfg_view.t) ->
  metric:Metric.t ->
  threshold:float ->
  (string * Path.t * int) list
(** Paths whose flow is at least [threshold] (a fraction, e.g. 0.00125)
    of total program flow, sorted by decreasing flow (Section 6.1). *)

