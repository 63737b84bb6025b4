(** Shared building blocks for the SPEC-shaped workloads: an in-program
    linear congruential generator (so control flow is data-dependent and
    reproducible), array initialization loops, and common reduction
    idioms. Everything is emitted as IR so it costs what it would cost in
    a real program. *)

type lcg
(** A PRNG living in a routine's registers. *)

val lcg_init : Ppp_ir.Builder.t -> seed:int -> lcg

val lcg_bits : Ppp_ir.Builder.t -> lcg -> lo:int -> width:int -> Ppp_ir.Ir.operand
(** Advance and extract [width] bits starting at bit [lo]. *)

val fill_random : Ppp_ir.Builder.t -> lcg -> array_name:string -> size:int -> unit
(** Emit a loop storing pseudo-random values into [0, size). *)

val masked : Ppp_ir.Builder.t -> Ppp_ir.Ir.operand -> size:int -> Ppp_ir.Ir.operand
(** Clamp an operand into [0, size) with a bitmask ([size] must be a
    power of two). *)

val isqrt_newton : Ppp_ir.Builder.t -> Ppp_ir.Ir.operand -> Ppp_ir.Ir.operand
(** Integer square root by a few Newton iterations — the workloads'
    stand-in for floating-point math (a data-dependent short loop). *)
