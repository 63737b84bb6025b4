(** Path-guided block layout for the pre-lowered VM, and the i-cache /
    taken-branch proxy that scores what it buys.

    A layout is a per-routine emission order over the routine's blocks:
    entry first, then the hottest recorded path's trace back to back (so
    the hot trace executes fall-through), then the remaining blocks by
    decreasing heat, never-executed blocks exiled to the array tail. The
    order is a pure emission hint for {!Lower} — branch targets are
    patched through the lowered [block_offset] table, so VM outcomes are
    byte-identical under any layout (the differential test suite asserts
    exactly that).

    The proxy replaces wall-clock i-cache measurement, which this
    interpreter cannot do honestly: every intra-routine control transfer
    of a lowered routine is charged with its edge frequency, and the
    mass is split into {e taken} transfers (target is not the next
    opcode) and {e local} ones (displacement within
    {!Cost.locality_window}). Lower taken mass and higher local mass is
    what hot-path fall-through buys on a real front end. *)

type t = (string, int array) Hashtbl.t
(** Emission order per routine name; an absent routine lowers in source
    order. This is what {!Engine.config.layout} carries. *)

val trace_blocks : Ppp_ir.Cfg_view.t -> Ppp_profile.Path.t -> int list
(** The blocks a path visits in trace order: the sources of its edges
    plus the destination of the last edge, with the virtual exit node
    dropped. Edge ids outside the view's CFG — a stale or hand-built
    path — cut the trace at the first offender; never raises. *)

val order_for :
  view:Ppp_ir.Cfg_view.t -> (Ppp_profile.Path.t * int) list -> int array option
(** The emission order of one routine given its recorded
    [(path, weight)] entries. [None] when the order would be the
    identity or the routine is trivial. Tie-breaks are total (weight
    descending, then the path itself), so the result never depends on
    the arrangement of the input list. *)

val of_hot_paths :
  views:(string -> Ppp_ir.Cfg_view.t) ->
  (string * Ppp_profile.Path.t * int) list ->
  t
(** A whole-program layout from [(routine, path, weight)] triples (the
    shape {!Ppp_profile.Path_profile.hot_paths} and
    {!Ppp_flow.Score.est} lists yield). Identity orders are omitted. *)

(** {2 The taken-transfer / locality proxy} *)

type proxy = {
  transfers : int;  (** dynamic intra-routine control transfers *)
  taken : int;  (** ... whose target is not the next opcode *)
  local : int;  (** ... within {!Cost.locality_window} of fall-through *)
}

val program_proxy :
  ?layout:t -> Ppp_ir.Ir.program -> ep:Ppp_profile.Edge_profile.program -> proxy
(** The program-wide proxy of a fresh lowering of the program under
    [layout] (source order when absent), charged with the true edge
    frequencies of [ep]. Pure cost-model arithmetic — deterministic, no
    execution. *)
