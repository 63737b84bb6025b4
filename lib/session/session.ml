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

(* The hit and miss counters of one artifact kind. *)
let hit_miss kind =
  ( Obs.counter ("session." ^ kind ^ ".hit"),
    Obs.counter ("session." ^ kind ^ ".miss") )

let m_view = hit_miss "view"
let m_dom = hit_miss "dom"
let m_loops = hit_miss "loops"
let m_ctx = hit_miss "ctx"
let m_flow = hit_miss "flow"
let m_run_hit = Obs.counter "session.run.hit"
let m_run_miss = Obs.counter "session.run.miss"
let m_invalidate = Obs.counter "session.invalidate"

(* One entry per routine name, for the version of the routine last
   synced or looked up: a lookup under any other version replaces it, so
   no entry outlives its version or pins an older generation's profile.
   Carrying work across versions is the salvage rule's job. *)
type entry = {
  e_fp : int;
  mutable e_routine : Ir.routine;
      (* the last physical routine matched, so a repeated lookup on the
         same object skips hashing *)
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
  entries : (string, entry) Hashtbl.t;
  mutable last_table : (string * int) list;
  mutable synced : Ir.program option;
      (* the program [last_table] was computed for, by physical identity *)
  mutable last_run : run_memo option;
  lower : Lower.cache option;
  counts : counts;
}

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  run_hits : int;
  run_misses : int;
}

let name t = t.s_name
let enabled t = t.s_enabled
let lower_cache t = t.lower

let fresh (r : Ir.routine) fp =
  {
    e_fp = fp;
    e_routine = r;
    e_view = None;
    e_dom = None;
    e_loops = None;
    e_ctx = None;
    e_def = None;
  }

(* The entry of [r], whose fingerprint is [fp]: an entry for another
   version of [r] is replaced by a fresh one. *)
let entry_fp t (r : Ir.routine) fp =
  match Hashtbl.find_opt t.entries r.Ir.name with
  | Some e when e.e_fp = fp ->
      e.e_routine <- r;
      e
  | _ ->
      let e = fresh r fp in
      Hashtbl.replace t.entries r.Ir.name e;
      e

(* [r]'s entry, matched by physical identity first, then by
   fingerprint. *)
let entry t (r : Ir.routine) =
  match Hashtbl.find_opt t.entries r.Ir.name with
  | Some e when e.e_routine == r -> e
  | _ -> entry_fp t r (Fingerprint.routine r)

(* The one lookup rule of every artifact: [get] reads [r]'s entry,
   [set] fills it with what [build] made. A disabled session builds
   every time and counts a miss. *)
let lookup t (m_hit, m_miss) r ~get ~set build =
  let miss () =
    t.counts.c_misses <- t.counts.c_misses + 1;
    Obs.incr m_miss
  in
  if not t.s_enabled then begin
    miss ();
    build ()
  end
  else
    let e = entry t r in
    match get e with
    | Some v ->
        t.counts.c_hits <- t.counts.c_hits + 1;
        Obs.incr m_hit;
        v
    | None ->
        miss ();
        let v = build () in
        set e v;
        v

let view t r =
  lookup t m_view r
    ~get:(fun e -> e.e_view)
    ~set:(fun e v -> e.e_view <- Some v)
    (fun () -> Cfg_view.of_routine r)

let dom t r =
  lookup t m_dom r
    ~get:(fun e -> e.e_dom)
    ~set:(fun e d -> e.e_dom <- Some d)
    (fun () ->
      let v = view t r in
      Dom.compute (Cfg_view.graph v) ~root:(Cfg_view.entry v))

let loops t r =
  lookup t m_loops r
    ~get:(fun e -> e.e_loops)
    ~set:(fun e l -> e.e_loops <- Some l)
    (fun () ->
      let v = view t r in
      let d = dom t r in
      Loop.compute ~dom:d (Cfg_view.graph v) ~root:(Cfg_view.entry v))

let ctx t ~ep (r : Ir.routine) =
  lookup t m_ctx r
    ~get:(fun e ->
      match e.e_ctx with Some (ep', c) when ep' == ep -> Some c | _ -> None)
    ~set:(fun e c -> e.e_ctx <- Some (ep, c))
    (fun () ->
      let v = view t r in
      let l = loops t r in
      Routine_ctx.make ~loops:l v (Edge_profile.routine ep r.Ir.name))

let definite t c =
  lookup t m_flow
    (Cfg_view.routine (Routine_ctx.view c))
    ~get:(fun e ->
      match e.e_def with Some (c', dp) when c' == c -> Some dp | _ -> None)
    ~set:(fun e dp -> e.e_def <- Some (c, dp))
    (fun () -> Flow_dp.compute c Flow_dp.Definite)

let sync t (p : Ir.program) =
  let table =
    List.map
      (fun (r : Ir.routine) ->
        let fp = Fingerprint.routine r in
        ignore (entry_fp t r fp);
        (r.Ir.name, fp))
      p.Ir.routines
  in
  let old = t.last_table in
  t.last_table <- table;
  t.synced <- Some p;
  List.iter
    (fun (nm, _) ->
      if not (List.mem_assoc nm table) then Hashtbl.remove t.entries nm)
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

let create ?(enabled = true) ~name () =
  let t =
    {
      s_name = name;
      s_enabled = enabled;
      entries = Hashtbl.create 64;
      last_table = [];
      synced = None;
      last_run = None;
      lower = (if enabled then Some (Lower.create_cache ()) else None);
      counts =
        {
          c_hits = 0;
          c_misses = 0;
          c_invalidations = 0;
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
    run_hits = t.counts.c_run_hits;
    run_misses = t.counts.c_run_misses;
  }

let pp_counts ~name ~enabled ppf s =
  Format.fprintf ppf
    "session %s (cache %s): %d hits, %d misses, %d invalidations, %d run \
     hits"
    name
    (if enabled then "on" else "off")
    s.hits s.misses s.invalidations s.run_hits

let pp_stats ppf t = pp_counts ~name:t.s_name ~enabled:t.s_enabled ppf (stats t)
