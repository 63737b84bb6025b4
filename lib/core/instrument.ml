module Graph = Ppp_cfg.Graph
module Dag = Ppp_cfg.Dag
module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Edge_profile = Ppp_profile.Edge_profile
module Path_profile = Ppp_profile.Path_profile
module Metric = Ppp_profile.Metric
module Routine_ctx = Ppp_flow.Routine_ctx
module Flow_dp = Ppp_flow.Flow_dp
module Instr_rt = Ppp_interp.Instr_rt
module Obs = Ppp_obs.Metrics

let m_routines_instrumented = Obs.counter "place.routines_instrumented"
let m_routines_skipped = Obs.counter "place.routines_skipped"
let m_static_actions = Obs.counter "place.static_actions"
let m_paths_elided = Obs.counter "place.paths_elided"
let m_paths_numbered = Obs.counter "place.paths_numbered"
let m_paths_hashed = Obs.counter "place.paths_hashed"
let m_self_adjust_iters = Obs.counter "place.self_adjust_iters"
let m_hash_tables = Obs.counter "place.hash_tables"

let h_paths_per_routine = Obs.histogram "place.paths_per_routine"

type reason =
  | Never_executed
  | Low_coverage of float
  | No_hot_paths
  | All_obvious
  | Too_many_paths

type decision =
  | Uninstrumented of reason
  | Instrumented of {
      hot : bool array;
      numbering : Numbering.t;
      place : Place.result;
      sa_iters : int;
      uses_hash : bool;
    }

type routine_plan = {
  routine_name : string;
  ctx : Routine_ctx.t;
  decision : decision;
}

type t = {
  config : Config.t;
  plans : (string, routine_plan) Hashtbl.t;
  rt : Instr_rt.t;
}

(* Weights for the event-counting spanning tree: the measured profile for
   PPP's smart numbering, the static heuristic otherwise (Section 4.5). *)
let static_dag_weights ctx =
  let view = Routine_ctx.view ctx in
  let st = Ppp_profile.Static_est.edge_freqs view in
  let dag = Routine_ctx.dag ctx in
  fun e ->
    match Dag.provenance dag e with
    | Dag.Original o -> st.(o)
    | Dag.Dummy_exit b -> st.(b)
    | Dag.Dummy_entry h ->
        List.fold_left (fun acc b -> acc +. st.(b)) 0.0 (Dag.backs_of_header dag h)

(* Edge-profile coverage of a routine, computable from the edge profile
   alone: definite flow over total branch flow (Sections 4.1, 6.2).
   [definite] supplies the definite-flow DP (memoizable by a session). *)
let edge_coverage ~definite ctx =
  let g = Routine_ctx.graph ctx in
  let actual =
    Graph.fold_edges g ~init:0 ~f:(fun acc e ->
        if Routine_ctx.is_branch ctx e then acc + Routine_ctx.freq ctx e else acc)
  in
  if actual = 0 then 1.0
  else begin
    let df = definite ctx in
    float_of_int (Flow_dp.total df ~metric:Metric.Branch_flow) /. float_of_int actual
  end

let number ctx (config : Config.t) hot =
  let order =
    if config.smart_numbering then
      Numbering.Freq_decreasing (fun e -> float_of_int (Routine_ctx.freq ctx e))
    else Numbering.Ball_larus
  in
  Numbering.compute ctx ~hot ~order

let plan_routine ?plan_ctx ?definite (config : Config.t) total_unit_flow
    profile_prog (r : Ir.routine) =
  let ctx =
    match plan_ctx with
    | Some f -> f r
    | None ->
        Routine_ctx.make (Cfg_view.of_routine r)
          (Edge_profile.routine profile_prog r.name)
  in
  let definite =
    match definite with
    | Some f -> f
    | None -> fun ctx -> Flow_dp.compute ctx Flow_dp.Definite
  in
  let decide () =
    if Routine_ctx.total_freq ctx = 0 then Uninstrumented Never_executed
    else begin
      let skip_coverage =
        match config.low_coverage_skip with
        | Some threshold ->
            let cov = edge_coverage ~definite ctx in
            if cov >= threshold then Some cov else None
        | None -> None
      in
      match skip_coverage with
      | Some cov -> Uninstrumented (Low_coverage cov)
      | None ->
          let extra_cold =
            if config.obvious_loops then
              Cold.obvious_loop_cold_edges ctx ~trip_threshold:config.obvious_trip
            else []
          in
          let cutoff_of fraction =
            int_of_float (ceil (fraction *. float_of_int total_unit_flow))
          in
          let mark_cold fraction_mult =
            let global_cutoff =
              Option.map
                (fun f -> cutoff_of (f *. fraction_mult))
                config.global_fraction
            in
            Cold.mark ctx ~local_ratio:(Some config.local_ratio) ~global_cutoff
              ~extra_cold
          in
          let full_hot () =
            Cold.mark ctx ~local_ratio:None ~global_cutoff:None ~extra_cold
          in
          (* Decide the hot edge set and whether hashing remains. *)
          let hot, numbering, uses_hash, sa_iters =
            match config.cold with
            | Config.No_cold_removal ->
                let hot = Cold.all_hot ctx in
                let nb = number ctx config hot in
                (hot, nb, Numbering.num_paths nb > config.hash_threshold, 0)
            | Config.If_escapes_hash ->
                let hot_full = full_hot () in
                let nb_full = number ctx config hot_full in
                if Numbering.num_paths nb_full <= config.hash_threshold then
                  (hot_full, nb_full, false, 0)
                else begin
                  let hot_cold = mark_cold 1.0 in
                  let nb_cold = number ctx config hot_cold in
                  if Numbering.num_paths nb_cold <= config.hash_threshold then
                    (hot_cold, nb_cold, false, 0)
                  else (hot_full, nb_full, true, 0)
                end
            | Config.Always ->
                let rec adjust mult iters =
                  let hot = mark_cold mult in
                  let nb = number ctx config hot in
                  if
                    Numbering.num_paths nb <= config.hash_threshold
                    || (not config.self_adjust)
                    || iters >= config.sa_max_iters
                    || config.global_fraction = None
                  then (hot, nb, Numbering.num_paths nb > config.hash_threshold, iters)
                  else adjust (mult *. config.sa_multiplier) (iters + 1)
                in
                adjust 1.0 0
          in
          (* An overflowed numbering counts as more paths than any hash
             threshold above, so it is only left when no choice fits. *)
          if not (Numbering.fits numbering) then Uninstrumented Too_many_paths
          else if Numbering.num_paths numbering = 0 then Uninstrumented No_hot_paths
          else begin
            let weight =
              if config.smart_numbering then fun e ->
                float_of_int (Routine_ctx.freq ctx e)
              else static_dag_weights ctx
            in
            let ev = Event_count.compute ctx ~hot ~numbering ~weight in
            let place =
              Place.place
                {
                  Place.ctx;
                  hot;
                  numbering;
                  ev;
                  push_past_cold = config.push_past_cold;
                  elide_obvious = config.elide_obvious;
                  poisoning = config.poisoning;
                  use_hash = uses_hash;
                }
            in
            if place.Place.num_actions = 0 then Uninstrumented All_obvious
            else Instrumented { hot; numbering; place; sa_iters; uses_hash }
          end
    end
  in
  { routine_name = r.name; ctx; decision = decide () }

let instrument ?plan_ctx ?definite (p : Ir.program) profile_prog config =
  let total_unit_flow = Edge_profile.program_unit_flow profile_prog p in
  let plans = Hashtbl.create 17 in
  let rt = Instr_rt.no_instrumentation () in
  List.iter
    (fun (r : Ir.routine) ->
      let plan =
        plan_routine ?plan_ctx ?definite config total_unit_flow profile_prog r
      in
      Hashtbl.replace plans r.name plan;
      match plan.decision with
      | Instrumented { numbering; place; sa_iters; uses_hash; _ } ->
          Hashtbl.replace rt r.name place.Place.rt;
          Obs.incr m_routines_instrumented;
          Obs.add m_static_actions place.Place.num_actions;
          Obs.add m_paths_elided (List.length place.Place.elided);
          let n = Numbering.num_paths numbering in
          Obs.add (if uses_hash then m_paths_hashed else m_paths_numbered) n;
          if uses_hash then Obs.incr m_hash_tables;
          Obs.add m_self_adjust_iters sa_iters;
          Obs.observe h_paths_per_routine (float_of_int n)
      | Uninstrumented _ -> Obs.incr m_routines_skipped)
    p.routines;
  { config; plans; rt }

let has_any_instrumentation t = Hashtbl.length t.rt > 0

let decoded_path plan k =
  match plan.decision with
  | Uninstrumented _ -> None
  | Instrumented { numbering; place; _ } ->
      if k < 0 || k >= Numbering.num_paths numbering then None
      else if List.mem_assoc k place.Place.elided then None
      else
        Some
          (Routine_ctx.cfg_path_of_dag_path plan.ctx (Numbering.decode numbering k))

let decoded_profile ~denom t state p =
  let prof = Path_profile.create_program p in
  Option.iter
    (Hashtbl.iter (fun name table ->
         match Hashtbl.find_opt t.plans name with
         | None -> ()
         | Some plan ->
             let per = Path_profile.routine prof name in
             Instr_rt.Table.iter_nonzero table (fun k c ->
                 match decoded_path plan k with
                 | Some path ->
                     Path_profile.add per path (Instr_rt.scaled_count ~denom c)
                 | None -> ())))
    state;
  prof

let path_status plan path =
  match plan.decision with
  | Uninstrumented _ -> `Uninstrumented
  | Instrumented { hot; numbering; place; _ } -> (
      match Routine_ctx.dag_path_of_cfg_path plan.ctx path with
      | exception Invalid_argument _ -> `Uninstrumented
      | dag_path ->
          if List.for_all (fun e -> hot.(e)) dag_path then begin
            let k = Numbering.number_of_path numbering dag_path in
            if List.mem_assoc k place.Place.elided then `Uninstrumented
            else `Instrumented k
          end
          else `Uninstrumented)

let static_instr_count t =
  Hashtbl.fold
    (fun _ plan acc ->
      match plan.decision with
      | Instrumented { place; _ } -> acc + place.Place.num_actions
      | Uninstrumented _ -> acc)
    t.plans 0

let pp_plan ppf plan =
  let view = Routine_ctx.view plan.ctx in
  let r = Cfg_view.routine view in
  let g = Cfg_view.graph view in
  let block_name v =
    match Cfg_view.block_of_node view v with
    | Some b -> r.Ir.blocks.(b).Ir.label
    | None -> "EXIT"
  in
  Format.fprintf ppf "@[<v>routine %s: " plan.routine_name;
  match plan.decision with
  | Uninstrumented reason ->
      (match reason with
      | Never_executed -> Format.fprintf ppf "not instrumented (never executed)"
      | Low_coverage c ->
          Format.fprintf ppf
            "not instrumented (edge-profile coverage %.0f%% meets the threshold)"
            (100.0 *. c)
      | No_hot_paths -> Format.fprintf ppf "not instrumented (no hot paths)"
      | All_obvious ->
          Format.fprintf ppf "not instrumented (all paths obvious after placement)"
      | Too_many_paths ->
          Format.fprintf ppf "not instrumented (more paths than an int can number)");
      Format.fprintf ppf "@]"
  | Instrumented { numbering; place; sa_iters; uses_hash; _ } ->
      Format.fprintf ppf "%d numbered paths, table %a%s@,"
        (Numbering.num_paths numbering)
        Instr_rt.pp_table_kind place.Place.rt.Instr_rt.table
        (if sa_iters > 0 then
           Printf.sprintf " (self-adjusted %d times)" sa_iters
         else "");
      ignore uses_hash;
      (match place.Place.elided with
      | [] -> ()
      | elided ->
          Format.fprintf ppf "obvious paths elided:%s@,"
            (String.concat ""
               (List.map (fun (k, _) -> " " ^ string_of_int k) elided)));
      Array.iteri
        (fun e actions ->
          match actions with
          | [] -> ()
          | _ ->
              Format.fprintf ppf "  %s -> %s: %s@," (block_name (Graph.src g e))
                (block_name (Graph.dst g e))
                (String.concat "; "
                   (List.map (Format.asprintf "%a" Instr_rt.pp_action) actions)))
        place.Place.rt.Instr_rt.edge_actions;
      Format.fprintf ppf "@]"
