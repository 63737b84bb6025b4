(* The one variant-resolution policy: which stream a frame runs at its
   entry and after each path-ending back edge, in the canonical order
   trip, tick, resolve. See resolve.mli. *)

module Ir = Ppp_ir.Ir

let instr = 0

type t = {
  sampler : Sampling.t option;
  tier : Tier.t option;
  tables : Instr_rt.state;
  routines : Ir.routine array;
  actions : Instr_rt.action list array array;
      (* routine -> edge -> instrumentation actions ([||] = none) *)
  plain : int array; (* routine -> its plain stream *)
  cur : int array;
      (* routine -> its current stream: [instr] until it tiers up, then
         its plain stream or its optimized generation *)
  install : idx:int -> order:int array -> gen:int -> unit;
  redecide : bool array; (* routine -> [must_redecide]'s answer *)
}

let start ?(install = fun ~idx:_ ~order:_ ~gen:_ -> ()) (config : Engine.config)
    ~tables (p : Ir.program) =
  let routines = Array.of_list p.Ir.routines in
  let ri (r : Ir.routine) =
    Option.bind config.Engine.instrumentation (fun i ->
        Hashtbl.find_opt i r.Ir.name)
  in
  let running spec f =
    match (spec, config.Engine.instrumentation) with
    | Some spec, Some _ -> Some (f spec)
    | _ -> None
  in
  let sampler = running config.Engine.sampling Sampling.start in
  let tier =
    running config.Engine.tier (fun spec ->
        Tier.start spec ~nroutines:(Array.length routines))
  in
  {
    sampler;
    tier;
    tables;
    routines;
    actions =
      Array.map
        (fun r ->
          match ri r with Some ri -> ri.Instr_rt.edge_actions | None -> [||])
        routines;
    plain =
      Array.map (fun r -> if Option.is_none (ri r) then instr else 1) routines;
    cur = Array.make (Array.length routines) instr;
    install;
    redecide =
      Array.make (Array.length routines)
        (Option.is_some sampler || Option.is_some tier);
  }

(* Routine [r] tripped the threshold: hand the controller its live path
   counters, then install what it decided. Only a genuine block order
   is accepted, and it mints an optimized generation; without one the
   routine runs its plain stream, which already is the routine stripped
   of its instrumentation. *)
let fire t tc r =
  let routine = t.routines.(r) in
  let name = routine.Ir.name in
  let counters =
    match Hashtbl.find_opt t.tables name with
    | None -> []
    | Some tbl ->
        let acc = ref [] in
        Instr_rt.Table.iter_nonzero tbl (fun k c -> acc := (k, c) :: !acc);
        List.rev !acc
  in
  let plain = t.plain.(r) in
  let accept = Lower.genuine_order ~nblocks:(Array.length routine.Ir.blocks) in
  t.cur.(r) <-
    (match Tier.fire tc ~idx:r ~name ~counters ~accept with
    | Some order ->
        t.install ~idx:r ~order ~gen:(Tier.swaps tc);
        plain + 1
    | None -> plain)

(* Steps one and two of the canonical order, then the resolution. A
   trip may be the routine's tier decision: then, unless the run
   samples, its frames need not resolve any more. *)
let[@inline] decide t r =
  (match t.tier with
  | Some tc ->
      if Tier.trip tc r then fire t tc r;
      if t.redecide.(r) && Option.is_none t.sampler && not (Tier.pending tc r)
      then t.redecide.(r) <- false
  | None -> ());
  let on = match t.sampler with None -> true | Some s -> Sampling.tick s in
  let cur = t.cur.(r) in
  if cur <> instr then cur else if on then instr else t.plain.(r)

let enter t r =
  let s = decide t r in
  (if t.cur.(r) <> instr then
     match t.tier with Some tc -> Tier.note_entry_swap tc | None -> ());
  s

let back_edge t r ~from =
  let s = decide t r in
  (if s <> from && t.cur.(r) <> instr then
     match t.tier with Some tc -> Tier.note_osr_swap tc | None -> ());
  s

(* A frame keeps the answer from its entry or its last resolution
   point, so a frame that entered before its routine's swap still holds
   [true]: its next back edge crosses it onto the new stream (OSR), and
   only that resolution clears the flag. Without a sampler, [false] is
   final: a decided routine's current stream never moves again, and
   [Tier.trip] would count nothing. *)
let must_redecide t = t.redecide

(* Every counting action discards the register value built before it,
   so the fold ends with what the actions after the last one build. *)
let rearm t r e =
  List.fold_left
    (fun reg -> function
      | Instr_rt.Set_r v -> v
      | Instr_rt.Add_r v -> reg + v
      | Instr_rt.Count_r | Instr_rt.Count_r_plus _ | Instr_rt.Count_const _
      | Instr_rt.Count_checked | Instr_rt.Count_checked_plus _ ->
          0)
    0 t.actions.(r).(e)

let decisions t = match t.tier with Some tc -> Tier.decisions tc | None -> []

let flush_metrics t =
  (match t.sampler with
  | Some s ->
      Instr_rt.flush_sample_metrics ~on_ticks:(Sampling.on_ticks s)
        ~off_ticks:(Sampling.off_ticks s) ~bursts:(Sampling.bursts s)
  | None -> ());
  match t.tier with Some tc -> Tier.flush_metrics tc | None -> ()
