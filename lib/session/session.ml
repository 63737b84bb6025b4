module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Dom = Ppp_cfg.Dom
module Loop = Ppp_cfg.Loop
module Edge_profile = Ppp_profile.Edge_profile
module Routine_ctx = Ppp_flow.Routine_ctx
module Flow_dp = Ppp_flow.Flow_dp
module Lower = Ppp_interp.Lower
module Fingerprint = Ppp_resilience.Fingerprint
module Interp = Ppp_interp.Interp
module Obs = Ppp_obs.Metrics

let m_view_hit = Obs.counter "session.view.hit"
let m_view_miss = Obs.counter "session.view.miss"
let m_dom_hit = Obs.counter "session.dom.hit"
let m_dom_miss = Obs.counter "session.dom.miss"
let m_loops_hit = Obs.counter "session.loops.hit"
let m_loops_miss = Obs.counter "session.loops.miss"
let m_ctx_hit = Obs.counter "session.ctx.hit"
let m_ctx_miss = Obs.counter "session.ctx.miss"
let m_flow_hit = Obs.counter "session.flow.hit"
let m_flow_miss = Obs.counter "session.flow.miss"
let m_run_hit = Obs.counter "session.run.hit"
let m_run_miss = Obs.counter "session.run.miss"
let m_invalidate = Obs.counter "session.invalidate"
let m_evict = Obs.counter "session.evict"

(* How many fingerprint generations a routine slot retains. Small: an
   iterate loop flips between adjacent generations; anything deeper is
   dead weight across a long session. *)
let retention = 8

type entry = {
  e_fp : int;
  mutable e_view : Cfg_view.t option;
  mutable e_dom : Dom.t option;
  mutable e_loops : Loop.t option;
  mutable e_ctx : (Edge_profile.program * Routine_ctx.t) option;
  mutable e_def : (Routine_ctx.t * Flow_dp.t) option;
      (* One slot each: the latest profile's context and its DP, keyed
         by physical identity. Every reader asks under the profile in
         hand, so an older profile's artifacts would only keep that
         profile alive. *)
}

type counts = {
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_invalidations : int;
  mutable c_evictions : int;
  mutable c_run_hits : int;
  mutable c_run_misses : int;
}

(* What decides a default-config run's outcome: every routine's
   fingerprint (the table [sync] computed for the program), its
   parameter and register counts, the arrays and the entry routine. *)
type run_key = {
  k_table : (string * int) list;
  k_regs : (int * int) list;
  k_arrays : (string * int) list;
  k_main : string;
}

type run_memo = {
  r_key : run_key;
  r_outcome : Interp.outcome;
  r_replay : (string * int) list option;
      (* The counters outside [session.*] the run advanced, and by how
         much, so a hit leaves the metrics as the run would have; [None]
         when metrics were off during the run. *)
}

type t = {
  s_name : string;
  s_enabled : bool;
  slots : (string, entry list) Hashtbl.t;
  mutable last_table : (string * int) list;
  mutable synced : Ir.program option;
      (* the program [last_table] was computed for, by physical identity *)
  mutable last_run : run_memo option;
  (* Last physical routine seen per name, with its fingerprint, so
     repeated artifact lookups on the same object skip re-hashing. *)
  fp_memo : (string, Ir.routine * int) Hashtbl.t;
  lower : Lower.cache option;
  counts : counts;
}

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;
  run_hits : int;
  run_misses : int;
}

let name t = t.s_name
let enabled t = t.s_enabled
let lower_cache t = t.lower

let hit t m =
  t.counts.c_hits <- t.counts.c_hits + 1;
  Obs.incr m

let miss t m =
  t.counts.c_misses <- t.counts.c_misses + 1;
  Obs.incr m

(* Truncate a routine's entries to [retention], counting what falls off. *)
let cap t xs =
  let rec go n = function
    | [] -> []
    | rest when n = 0 ->
        List.iter
          (fun _ ->
            t.counts.c_evictions <- t.counts.c_evictions + 1;
            Obs.incr m_evict)
          rest;
        []
    | x :: rest -> x :: go (n - 1) rest
  in
  go retention xs

let fingerprint t (r : Ir.routine) =
  match Hashtbl.find_opt t.fp_memo r.Ir.name with
  | Some (r', fp) when r' == r -> fp
  | _ ->
      let fp = Fingerprint.routine r in
      Hashtbl.replace t.fp_memo r.Ir.name (r, fp);
      fp

let entry t (r : Ir.routine) =
  let fp = fingerprint t r in
  let es = Option.value ~default:[] (Hashtbl.find_opt t.slots r.Ir.name) in
  match List.find_opt (fun e -> e.e_fp = fp) es with
  | Some e -> e
  | None ->
      let e =
        {
          e_fp = fp;
          e_view = None;
          e_dom = None;
          e_loops = None;
          e_ctx = None;
          e_def = None;
        }
      in
      Hashtbl.replace t.slots r.Ir.name (cap t (e :: es));
      e

let view t r =
  if not t.s_enabled then begin
    miss t m_view_miss;
    Cfg_view.of_routine r
  end
  else
    let e = entry t r in
    match e.e_view with
    | Some v ->
        hit t m_view_hit;
        v
    | None ->
        miss t m_view_miss;
        let v = Cfg_view.of_routine r in
        e.e_view <- Some v;
        v

let dom t r =
  let build () =
    let v = view t r in
    Dom.compute (Cfg_view.graph v) ~root:(Cfg_view.entry v)
  in
  if not t.s_enabled then begin
    miss t m_dom_miss;
    build ()
  end
  else
    let e = entry t r in
    match e.e_dom with
    | Some d ->
        hit t m_dom_hit;
        d
    | None ->
        miss t m_dom_miss;
        let d = build () in
        e.e_dom <- Some d;
        d

let loops t r =
  let build () =
    let v = view t r in
    let d = dom t r in
    Loop.compute ~dom:d (Cfg_view.graph v) ~root:(Cfg_view.entry v)
  in
  if not t.s_enabled then begin
    miss t m_loops_miss;
    build ()
  end
  else
    let e = entry t r in
    match e.e_loops with
    | Some l ->
        hit t m_loops_hit;
        l
    | None ->
        miss t m_loops_miss;
        let l = build () in
        e.e_loops <- Some l;
        l

let ctx t ~ep (r : Ir.routine) =
  let build () =
    let v = view t r in
    let l = loops t r in
    Routine_ctx.make ~loops:l v (Edge_profile.routine ep r.Ir.name)
  in
  if not t.s_enabled then begin
    miss t m_ctx_miss;
    build ()
  end
  else
    let e = entry t r in
    match e.e_ctx with
    | Some (ep', c) when ep' == ep ->
        hit t m_ctx_hit;
        c
    | _ ->
        miss t m_ctx_miss;
        let c = build () in
        e.e_ctx <- Some (ep, c);
        c

let definite t c =
  let build () = Flow_dp.compute c Flow_dp.Definite in
  if not t.s_enabled then begin
    miss t m_flow_miss;
    build ()
  end
  else
    let r = Cfg_view.routine (Routine_ctx.view c) in
    let e = entry t r in
    match e.e_def with
    | Some (c', dp) when c' == c ->
        hit t m_flow_hit;
        dp
    | _ ->
        miss t m_flow_miss;
        let dp = build () in
        e.e_def <- Some (c, dp);
        dp

let sync t (p : Ir.program) =
  let table =
    List.map
      (fun (r : Ir.routine) ->
        let fp = Fingerprint.routine r in
        Hashtbl.replace t.fp_memo r.Ir.name (r, fp);
        (r.Ir.name, fp))
      p.Ir.routines
  in
  let old = t.last_table in
  t.last_table <- table;
  t.synced <- Some p;
  List.iter
    (fun (nm, _) ->
      if not (List.mem_assoc nm table) then begin
        Hashtbl.remove t.slots nm;
        Hashtbl.remove t.fp_memo nm
      end)
    old;
  let dirty =
    List.filter_map
      (fun (nm, fp) ->
        match List.assoc_opt nm old with
        | Some fp' when fp' = fp -> None
        | _ -> Some nm)
      table
  in
  List.iter
    (fun _ ->
      t.counts.c_invalidations <- t.counts.c_invalidations + 1;
      Obs.incr m_invalidate)
    dirty;
  dirty

(* {2 The run memo}

   One slot: the pipeline's default-config runs repeat the run just
   before them when an optimizer pass changed nothing, so the last
   outcome is the one worth keeping. *)

let counters_outside_session () =
  List.filter_map
    (function
      | name, Obs.Counter n when not (String.starts_with ~prefix:"session." name)
        ->
          Some (name, n)
      | _ -> None)
    (Obs.snapshot ())

let advanced ~before ~after =
  let was = Hashtbl.of_seq (List.to_seq before) in
  List.filter_map
    (fun (name, n) ->
      let d = n - Option.value ~default:0 (Hashtbl.find_opt was name) in
      if d <> 0 then Some (name, d) else None)
    after

let run t (p : Ir.program) =
  let key =
    match t.synced with
    | Some q when q == p && t.s_enabled ->
        Some
          {
            k_table = t.last_table;
            k_regs =
              List.map (fun (r : Ir.routine) -> (r.Ir.nparams, r.Ir.nregs))
                p.Ir.routines;
            k_arrays = p.Ir.arrays;
            k_main = p.Ir.main;
          }
    | _ -> None
  in
  let metrics = Obs.enabled () in
  match (key, t.last_run) with
  | Some k, Some m when m.r_key = k && ((not metrics) || m.r_replay <> None) ->
      t.counts.c_run_hits <- t.counts.c_run_hits + 1;
      Obs.incr m_run_hit;
      Option.iter
        (List.iter (fun (name, d) -> Obs.add (Obs.counter name) d))
        m.r_replay;
      m.r_outcome
  | _ ->
      t.counts.c_run_misses <- t.counts.c_run_misses + 1;
      Obs.incr m_run_miss;
      let before = if metrics then Some (counters_outside_session ()) else None in
      let o = Interp.run ?cache:t.lower p in
      Option.iter
        (fun k ->
          t.last_run <-
            Some
              {
                r_key = k;
                r_outcome = o;
                r_replay =
                  Option.map
                    (fun before ->
                      advanced ~before ~after:(counters_outside_session ()))
                    before;
              })
        key;
      o

let forget_run t = t.last_run <- None

let warm t (p : Ir.program) =
  ignore (sync t p);
  if t.s_enabled then begin
    List.iter (fun (r : Ir.routine) -> ignore (loops t r)) p.Ir.routines;
    match t.lower with
    | Some cache ->
        (* Fill the structural-plan cache too; lowering without running
           is cheap and the plans are instrumentation-independent. *)
        ignore
          (Lower.program ~cache ~config:Ppp_interp.Engine.default_config
             ~instr_tables:
               (Ppp_interp.Instr_rt.init_state
                  (Ppp_interp.Instr_rt.no_instrumentation ()))
             p)
    | None -> ()
  end

let create ?(enabled = true) ~name () =
  let t =
    {
      s_name = name;
      s_enabled = enabled;
      slots = Hashtbl.create 64;
      last_table = [];
      synced = None;
      last_run = None;
      fp_memo = Hashtbl.create 64;
      lower = (if enabled then Some (Lower.create_cache ()) else None);
      counts =
        {
          c_hits = 0;
          c_misses = 0;
          c_invalidations = 0;
          c_evictions = 0;
          c_run_hits = 0;
          c_run_misses = 0;
        };
    }
  in
  (match t.lower with
  | Some c -> Lower.set_analysis c (fun r -> (view t r, loops t r))
  | None -> ());
  t

let stats t =
  {
    hits = t.counts.c_hits;
    misses = t.counts.c_misses;
    invalidations = t.counts.c_invalidations;
    evictions = t.counts.c_evictions;
    run_hits = t.counts.c_run_hits;
    run_misses = t.counts.c_run_misses;
  }

let pp_counts ~name ~enabled ppf s =
  Format.fprintf ppf
    "session %s (cache %s): %d hits, %d misses, %d invalidations, %d \
     evictions, %d run hits"
    name
    (if enabled then "on" else "off")
    s.hits s.misses s.invalidations s.evictions s.run_hits

let pp_stats ppf t = pp_counts ~name:t.s_name ~enabled:t.s_enabled ppf (stats t)
