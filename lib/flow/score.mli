(** Accuracy and coverage of estimated path profiles (Section 6). *)

type est = {
  routine : string;
  path : Ppp_profile.Path.t;
  flow : int;  (** estimated flow under the chosen metric *)
}

val accuracy :
  actual:Ppp_profile.Path_profile.program ->
  views:(string -> Ppp_ir.Cfg_view.t) ->
  metric:Ppp_profile.Metric.t ->
  threshold:float ->
  estimated:est list ->
  float
(** Wall's weight-matching scheme (Section 6.1): identify the actual hot
    paths [H_actual] (flow at least [threshold] of total actual flow),
    pick the [|H_actual|] hottest estimated paths as [H_estimated], and
    return [F(H_estimated ∩ H_actual) / F(H_actual)] with flows taken
    from the actual profile. 1.0 when there are no hot paths. *)

val hot_actual :
  actual:Ppp_profile.Path_profile.program ->
  views:(string -> Ppp_ir.Cfg_view.t) ->
  metric:Ppp_profile.Metric.t ->
  threshold:float ->
  (string * Ppp_profile.Path.t * int) list
(** The actual hot paths with their flows, hottest first. *)

val coverage :
  total_actual_flow:int ->
  measured_actual_flow:int ->
  definite_uninstr:int ->
  overcount:int ->
  float
(** Section 6.2:
    [(F(P_instr) + DF(P_uninstr) - F_overcount) / F(P)]. With no
    instrumented paths and no overcount this reduces to edge-profile
    coverage [DF(P) / F(P)]. 1.0 when total flow is zero. *)

val layout_score : transfers:int -> taken:int -> local:int -> float
(** The estimated front-end penalty of a block layout, from the
    taken-transfer / locality proxy ([Ppp_interp.Layout]):
    [2 * taken/transfers + (transfers - local)/transfers]: a taken
    transfer weighs twice a nonlocal one, since it both redirects fetch
    and risks a fresh cache line.
    Lower is better; 0.0 when there are no transfers (nothing for
    layout to improve). *)

val layout_improvement : base:float -> candidate:float -> float
(** [base - candidate], in {!layout_score} points: positive means the
    candidate layout reduces the estimated penalty. Only meaningful
    when both scores come from the same program and frequencies. *)
