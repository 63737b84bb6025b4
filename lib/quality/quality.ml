(* Profile-quality analytics: given two decoded path profiles — measured
   vs measured, estimated vs measured, this version vs last version —
   quantify how much they agree.

   A profile is held normalized: a table from (routine, edge list) to
   weight plus the total, so every score is a pure function of relative
   flow and two profiles of very different absolute scales (a short
   training run vs a long production run) compare on shape alone. *)

module Cfg_view = Ppp_ir.Cfg_view
module Path = Ppp_profile.Path
module Path_profile = Ppp_profile.Path_profile
module Metric = Ppp_profile.Metric
module Profile_io = Ppp_profile.Profile_io
module Score = Ppp_flow.Score
module Stale_match = Ppp_resilience.Stale_match
module Jsonx = Ppp_obs.Jsonx

type key = string * int list

(* Keys hash over the whole path (see [Path.hash]). *)
module Tbl = Hashtbl.Make (struct
  type t = key

  let equal ((r1, p1) : t) (r2, p2) = String.equal r1 r2 && Path.equal p1 p2
  let hash (r, p) = (Hashtbl.hash r * 31) + Path.hash p
end)

type t = { weights : int Tbl.t; mutable total : int }

let sat_add a b = if a > max_int - b then max_int else a + b

let create () = { weights = Tbl.create 64; total = 0 }

let add t ~routine ~path w =
  if w > 0 then begin
    let k = (routine, path) in
    let prev = Option.value ~default:0 (Tbl.find_opt t.weights k) in
    Tbl.replace t.weights k (sat_add prev w);
    t.total <- sat_add t.total w
  end

let of_weighted entries =
  let t = create () in
  List.iter (fun ((routine, path), w) -> add t ~routine ~path w) entries;
  t

let of_path_profile ~views ~metric prof =
  let t = create () in
  Path_profile.iter_routines prof (fun name per ->
      let view = views name in
      Path_profile.iter per (fun path n ->
          let b = Path.branches view path in
          add t ~routine:name ~path (Metric.flow metric ~freq:n ~branches:b)));
  t

let of_estimates ests =
  let t = create () in
  List.iter
    (fun (e : Score.est) -> add t ~routine:e.Score.routine ~path:e.Score.path e.Score.flow)
    ests;
  t

(* Branch counts out of a stored CFG description: an edge contributes to
   the branch count iff its source block has out-degree >= 2, exactly
   [Cfg_view.num_branch_edges_on] computed from the dump instead of the
   program. *)
let branch_edges_of_desc (d : Stale_match.cfg_desc) =
  let n = Array.length d.Stale_match.edges in
  let out = Hashtbl.create 17 in
  Array.iter
    (fun (src, _) ->
      Hashtbl.replace out src (1 + Option.value ~default:0 (Hashtbl.find_opt out src)))
    d.Stale_match.edges;
  Array.init n (fun e ->
      let src, _ = d.Stale_match.edges.(e) in
      Option.value ~default:0 (Hashtbl.find_opt out src) >= 2)

let of_dump ~metric raw =
  let t = create () in
  List.iter
    (fun name ->
      let metric, branches =
        match Profile_io.Raw.desc raw name with
        | Some d ->
            let is_branch = branch_edges_of_desc d in
            ( metric,
              fun path ->
                List.fold_left
                  (fun acc e ->
                    if e >= 0 && e < Array.length is_branch && is_branch.(e) then
                      acc + 1
                    else acc)
                  0 path )
        | None -> (Metric.Unit_flow, fun _ -> 0) (* no CFG description *)
      in
      Profile_io.Raw.iter_paths raw name (fun path n ->
          add t ~routine:name ~path
            (Metric.flow metric ~freq:n ~branches:(branches path))))
    (Profile_io.Raw.routines raw);
  t

let total t = t.total
let distinct t = Tbl.length t.weights

let iter t f = Tbl.iter (fun (routine, path) w -> f ~routine ~path w) t.weights

(* {2 Scores} *)

let norm t k =
  if t.total = 0 then 0.0
  else
    float_of_int (Option.value ~default:0 (Tbl.find_opt t.weights k))
    /. float_of_int t.total

(* Sorted, so float sums over the union do not depend on table order. *)
let union_keys a b =
  let keys = Tbl.create (Tbl.length a.weights + Tbl.length b.weights) in
  Tbl.iter (fun k _ -> Tbl.replace keys k ()) a.weights;
  Tbl.iter (fun k _ -> Tbl.replace keys k ()) b.weights;
  List.sort compare (Tbl.fold (fun k () acc -> k :: acc) keys [])

let overlap a b =
  if a.total = 0 && b.total = 0 then 100.0
  else if a.total = 0 || b.total = 0 then 0.0
  else
    100.0
    *. List.fold_left
         (fun acc k -> acc +. Float.min (norm a k) (norm b k))
         0.0 (union_keys a b)

type hot_report = {
  threshold : float;
  hot_ref : int;
  hot_cand : int;
  matched : int;
  precision : float;
  recall : float;
  flow_coverage : float;
}

let hot_keys t ~threshold =
  let cut = threshold *. float_of_int t.total in
  Tbl.fold
    (fun k w acc -> if float_of_int w >= cut && w > 0 then k :: acc else acc)
    t.weights []

let hot_report ?(threshold = 0.00125) ~reference ~candidate () =
  let hot_r = hot_keys reference ~threshold in
  let hot_c = hot_keys candidate ~threshold in
  let cset = Tbl.create 17 in
  List.iter (fun k -> Tbl.replace cset k ()) hot_c;
  let matched = List.length (List.filter (Tbl.mem cset) hot_r) in
  let hot_flow, seen_flow =
    List.fold_left
      (fun (tot, seen) k ->
        let w = Option.value ~default:0 (Tbl.find_opt reference.weights k) in
        ( sat_add tot w,
          if Tbl.mem candidate.weights k then sat_add seen w else seen ))
      (0, 0) hot_r
  in
  {
    threshold;
    hot_ref = List.length hot_r;
    hot_cand = List.length hot_c;
    matched;
    precision =
      (if hot_c = [] then 1.0
       else float_of_int matched /. float_of_int (List.length hot_c));
    recall =
      (if hot_r = [] then 1.0
       else float_of_int matched /. float_of_int (List.length hot_r));
    flow_coverage =
      (if hot_flow = 0 then 1.0
       else float_of_int seen_flow /. float_of_int hot_flow);
  }

(* Per-routine total-variation distance between the two profiles'
   whole-profile-normalized flows, scaled so a routine whose paths agree
   perfectly scores 0.0 and one with no common mass scores its share of
   total disagreement. Summed over routines the figure is the global TV
   distance in [0, 1]. *)
let divergence a b =
  let per = Hashtbl.create 17 in
  List.iter
    (fun ((r, _) as k) ->
      let d = Float.abs (norm a k -. norm b k) /. 2.0 in
      Hashtbl.replace per r (d +. Option.value ~default:0.0 (Hashtbl.find_opt per r)))
    (union_keys a b);
  List.sort
    (fun (r1, d1) (r2, d2) ->
      match compare d2 d1 with 0 -> String.compare r1 r2 | c -> c)
    (Hashtbl.fold (fun r d acc -> (r, d) :: acc) per [])

let total_divergence a b =
  List.fold_left (fun acc (_, d) -> acc +. d) 0.0 (divergence a b)

(* One number for dashboards: how much of the reference's behaviour the
   candidate reproduces, discounted by how much the candidate is trusted
   in the first place (e.g. a stale-salvage matched fraction). *)
let composite ?(confidence = 1.0) ~reference ~candidate () =
  let ov = overlap reference candidate /. 100.0 in
  let hot = hot_report ~reference ~candidate () in
  let dv = total_divergence reference candidate in
  confidence
  *. ((0.5 *. ov) +. (0.3 *. hot.flow_coverage) +. (0.2 *. (1.0 -. dv)))

(* {2 JSON} *)

let hot_report_json h =
  Jsonx.Obj
    [
      ("threshold", Jsonx.Float h.threshold);
      ("hot_ref", Jsonx.Int h.hot_ref);
      ("hot_cand", Jsonx.Int h.hot_cand);
      ("matched", Jsonx.Int h.matched);
      ("precision", Jsonx.Float h.precision);
      ("recall", Jsonx.Float h.recall);
      ("flow_coverage", Jsonx.Float h.flow_coverage);
    ]

let comparison_json ?confidence ~reference ~candidate () =
  let hot = hot_report ~reference ~candidate () in
  Jsonx.Obj
    [
      ("overlap_pct", Jsonx.Float (overlap reference candidate));
      ("hot", hot_report_json hot);
      ( "divergence",
        Jsonx.Obj
          (List.map
             (fun (r, d) -> (r, Jsonx.Float d))
             (divergence reference candidate)) );
      ("total_divergence", Jsonx.Float (total_divergence reference candidate));
      ("composite", Jsonx.Float (composite ?confidence ~reference ~candidate ()));
      ("ref_total", Jsonx.Int reference.total);
      ("cand_total", Jsonx.Int candidate.total);
      ("ref_distinct", Jsonx.Int (distinct reference));
      ("cand_distinct", Jsonx.Int (distinct candidate));
    ]
