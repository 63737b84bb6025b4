(* Cross-cutting property tests against brute force on randomly
   generated programs: dominators, potential-flow enumeration, flow-value
   algebra, numbering/event-counting invariants checked directly on
   DAGs rather than through the interpreter, and the shared spanning
   tree on random multigraphs. *)

module Graph = Ppp_cfg.Graph
module Loop = Ppp_cfg.Loop
module Path_numbering = Ppp_cfg.Path_numbering
module Spanning_tree = Ppp_cfg.Spanning_tree
module Order = Ppp_cfg.Order
module Dom = Ppp_cfg.Dom
module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Edge_profile = Ppp_profile.Edge_profile
module Metric = Ppp_profile.Metric
module Routine_ctx = Ppp_flow.Routine_ctx
module Flow_dp = Ppp_flow.Flow_dp
module Flowval = Ppp_flow.Flowval
module Numbering = Ppp_core.Numbering
module Event_count = Ppp_core.Event_count
module Cold = Ppp_core.Cold
module Interp = Ppp_interp.Interp

(* Contexts (with real edge profiles) for every routine of a generated,
   executed program. *)
let contexts_of_seed seed =
  let p = Ppp_workloads.Gen.program ~seed in
  let o = Interp.run p in
  let ep = Option.get o.Interp.edge_profile in
  List.map
    (fun (r : Ir.routine) ->
      let view = Cfg_view.of_routine r in
      Routine_ctx.make view (Edge_profile.routine ep r.Ir.name))
    p.Ir.routines

(* Brute-force dominators: u dominates v iff removing u makes v
   unreachable from the root. *)
let prop_dominators_brute_force =
  QCheck.Test.make ~name:"dominators match path-cut brute force" ~count:25
    QCheck.(small_int)
    (fun seed ->
      let p = Ppp_workloads.Gen.program ~seed in
      List.for_all
        (fun (r : Ir.routine) ->
          let view = Cfg_view.of_routine r in
          let g = Cfg_view.graph view in
          let n = Graph.num_nodes g in
          if n > 40 then true (* keep the O(n^3) check affordable *)
          else begin
            let dom = Dom.compute g ~root:0 in
            let reachable_avoiding cut target =
              let seen = Array.make n false in
              let rec go v =
                if (not seen.(v)) && v <> cut then begin
                  seen.(v) <- true;
                  List.iter go (Graph.succs g v)
                end
              in
              go 0;
              seen.(target)
            in
            let ok = ref true in
            for u = 0 to n - 1 do
              for v = 0 to n - 1 do
                if u <> v && v <> 0 then begin
                  let brute = not (reachable_avoiding u v) in
                  let fast = Dom.dominates dom u v in
                  if Order.(reachable g 0).(v) && brute <> fast then ok := false
                end
              done
            done;
            !ok
          end)
        p.Ir.routines)

(* potential_hot_paths agrees with the closed form: every returned path's
   potential equals min edge frequency (capped at F), its branch count is
   right, and the set contains every path above its implied threshold. *)
let prop_potential_hot_paths_sound =
  QCheck.Test.make ~name:"potential_hot_paths values are exact" ~count:30
    QCheck.(small_int)
    (fun seed ->
      List.for_all
        (fun ctx ->
          let paths = Flow_dp.potential_hot_paths ctx ~max_paths:2000 in
          List.for_all
            (fun (path, pf, b) ->
              pf = Flow_dp.potential_of_path ctx path
              && b
                 = List.fold_left
                     (fun acc e ->
                       if Routine_ctx.is_branch ctx e then acc + 1 else acc)
                     0 path)
            paths
          (* and the list has no duplicates *)
          && List.length paths
             = List.length (List.sort_uniq compare (List.map (fun (p, _, _) -> p) paths)))
        (contexts_of_seed seed))

let prop_potential_contains_executed_hot =
  QCheck.Test.make
    ~name:"potential_hot_paths includes every sufficiently hot executed path"
    ~count:25
    QCheck.(small_int)
    (fun seed ->
      let p = Ppp_workloads.Gen.program ~seed in
      let o = Interp.run p in
      let ep = Option.get o.Interp.edge_profile in
      let actual = Option.get o.Interp.path_profile in
      List.for_all
        (fun (r : Ir.routine) ->
          let view = Cfg_view.of_routine r in
          let ctx = Routine_ctx.make view (Edge_profile.routine ep r.Ir.name) in
          let listed = Flow_dp.potential_hot_paths ctx ~max_paths:2000 in
          let min_pf =
            List.fold_left (fun m (_, pf, _) -> min m pf) max_int listed
          in
          if List.length listed >= 2000 then true
          else
            Ppp_profile.Path_profile.fold
              (Ppp_profile.Path_profile.routine actual r.Ir.name)
              ~init:true
              ~f:(fun ok path n ->
                ok
                &&
                (* Any executed path with frequency above the listing's
                   bottleneck floor must be present (its potential >= its
                   actual frequency > floor). *)
                if n <= min_pf then true
                else
                  List.exists
                    (fun (dag, _, _) ->
                      Routine_ctx.cfg_path_of_dag_path ctx dag = path)
                    listed))
        p.Ir.routines)

(* Numbering + event counting invariants, checked on the DAG directly. *)
let all_paths ctx hot ~cap =
  let g = Routine_ctx.graph ctx in
  let exit = Routine_ctx.exit ctx in
  let count = ref 0 in
  let acc = ref [] in
  let exception Enough in
  let rec walk v path =
    if !count > cap then raise Enough;
    if v = exit then begin
      incr count;
      acc := List.rev path :: !acc
    end
    else
      List.iter
        (fun e -> if hot.(e) then walk (Graph.dst g e) (e :: path))
        (Graph.out_edges g v)
  in
  (try walk (Routine_ctx.entry ctx) [] with Enough -> ());
  if !count > cap then None else Some !acc

let prop_numbering_bijection_random =
  QCheck.Test.make ~name:"numbering is a bijection on random DAGs" ~count:30
    QCheck.(small_int)
    (fun seed ->
      List.for_all
        (fun ctx ->
          let hot = Cold.all_hot ctx in
          let nb = Numbering.compute ctx ~hot ~order:Numbering.Ball_larus in
          match all_paths ctx hot ~cap:3000 with
          | None -> true (* too many to enumerate *)
          | Some paths ->
              let nums = List.map (Numbering.number_of_path nb) paths in
              List.length paths = Numbering.num_paths nb
              && List.sort_uniq compare nums
                 = List.init (Numbering.num_paths nb) Fun.id)
        (contexts_of_seed seed))

let prop_event_counting_preserves_random =
  QCheck.Test.make ~name:"event counting preserves path sums on random DAGs"
    ~count:30
    QCheck.(small_int)
    (fun seed ->
      List.for_all
        (fun ctx ->
          let hot = Cold.all_hot ctx in
          let nb = Numbering.compute ctx ~hot ~order:Numbering.Ball_larus in
          let ev =
            Event_count.compute ctx ~hot ~numbering:nb
              ~weight:(fun e -> float_of_int (Routine_ctx.freq ctx e))
          in
          match all_paths ctx hot ~cap:2000 with
          | None -> true
          | Some paths ->
              List.for_all
                (fun path ->
                  Event_count.sum_along ev path = Numbering.number_of_path nb path)
                paths)
        (contexts_of_seed seed))

let prop_smart_numbering_bijection =
  QCheck.Test.make ~name:"smart numbering is also a bijection" ~count:30
    QCheck.(small_int)
    (fun seed ->
      List.for_all
        (fun ctx ->
          let hot = Cold.all_hot ctx in
          let nb =
            Numbering.compute ctx ~hot
              ~order:
                (Numbering.Freq_decreasing
                   (fun e -> float_of_int (Routine_ctx.freq ctx e)))
          in
          match all_paths ctx hot ~cap:2000 with
          | None -> true
          | Some paths ->
              List.sort_uniq compare (List.map (Numbering.number_of_path nb) paths)
              = List.init (Numbering.num_paths nb) Fun.id)
        (contexts_of_seed seed))

(* The tracer's register at any block of a path in flight decodes back
   to the edges crossed so far: random walks over every routine of a
   generated program, checked at each block, through path ends and
   restarts at loop headers. *)
let prop_tracing_prefix_decodes =
  QCheck.Test.make ~name:"tracing: every path prefix decodes from its register"
    ~count:30
    QCheck.(pair small_int small_int)
    (fun (seed, walk_seed) ->
      let p = Ppp_workloads.Gen.program ~seed in
      let rng = Random.State.make [| walk_seed |] in
      List.for_all
        (fun (r : Ir.routine) ->
          let view = Cfg_view.of_routine r in
          let g = Cfg_view.graph view in
          let exit = Cfg_view.exit view in
          let ends =
            Loop.breakable_edges (Loop.compute g ~root:(Cfg_view.entry view))
          in
          let tr =
            Path_numbering.tracing g ~entry:(Cfg_view.entry view) ~exit ~ends
          in
          (* [crossed] is the segment's edges, latest first. *)
          let rec walk steps v reg crossed =
            Path_numbering.decode_prefix tr reg ~at:v = List.rev crossed
            && (steps = 0
               ||
               match Graph.out_edges g v with
               | [] -> true
               | outs ->
                   let e = List.nth outs (Random.State.int rng (List.length outs)) in
                   let next = Graph.dst g e in
                   if next = exit then true
                   else if Path_numbering.restart tr e >= 0 then
                     walk (steps - 1) next (Path_numbering.restart tr e) []
                   else
                     walk (steps - 1) next
                       (reg + Path_numbering.step tr e)
                       (e :: crossed))
          in
          walk 200 (Cfg_view.entry view) 0 [])
        p.Ir.routines)

(* Flow-value algebra. *)
let flowval_gen =
  QCheck.Gen.(
    map
      (fun entries ->
        List.fold_left
          (fun acc (f, b, d) ->
            Flowval.add acc ~f:(1 + abs f) ~b:(abs b mod 5) ~delta:(1 + (abs d mod 3)))
          Flowval.empty entries)
      (small_list (triple small_int small_int small_int)))

let flowval_arb = QCheck.make flowval_gen

let prop_flowval_union_comm =
  QCheck.Test.make ~name:"flowval union is commutative" ~count:100
    (QCheck.pair flowval_arb flowval_arb)
    (fun (a, b) ->
      Flowval.entries_decreasing_flow (Flowval.union a b)
      = Flowval.entries_decreasing_flow (Flowval.union b a))

let prop_flowval_union_assoc =
  QCheck.Test.make ~name:"flowval union is associative" ~count:100
    (QCheck.triple flowval_arb flowval_arb flowval_arb)
    (fun (a, b, c) ->
      Flowval.entries_decreasing_flow (Flowval.union (Flowval.union a b) c)
      = Flowval.entries_decreasing_flow (Flowval.union a (Flowval.union b c)))

let prop_flowval_total_additive =
  QCheck.Test.make ~name:"flowval total is additive under union" ~count:100
    (QCheck.pair flowval_arb flowval_arb)
    (fun (a, b) ->
      Flowval.total_flow (Flowval.union a b) ~metric:Metric.Branch_flow
      = Flowval.total_flow a ~metric:Metric.Branch_flow
        + Flowval.total_flow b ~metric:Metric.Branch_flow)

let prop_flowval_shift =
  QCheck.Test.make ~name:"shift_branch preserves cardinal and unit flow" ~count:100
    flowval_arb
    (fun a ->
      let s = Flowval.shift_branch a in
      Flowval.total_flow s ~metric:Metric.Unit_flow
      = Flowval.total_flow a ~metric:Metric.Unit_flow
      && Flowval.cardinal s = Flowval.cardinal a)

(* {2 The shared spanning tree} *)

(* A random multigraph: 2..10 nodes, entry 0, exit the last node, and
   random edges with self-loops and parallel edges; some nodes get no
   edge or lie out of the entry's reach. Weights are small integers, so
   ties are common. *)
let random_multigraph seed =
  let rng = Random.State.make [| seed |] in
  let n = 2 + Random.State.int rng 9 in
  let g = Graph.create () in
  Graph.add_nodes g n;
  for _ = 1 to Random.State.int rng (3 * n) do
    let u = Random.State.int rng n in
    let v = if Random.State.int rng 6 = 0 then u else Random.State.int rng n in
    ignore (Graph.add_edge g u v);
    if Random.State.int rng 5 = 0 then ignore (Graph.add_edge g u v)
  done;
  let w = Array.init (max 1 (Graph.num_edges g)) (fun _ -> float (Random.State.int rng 4)) in
  (rng, g, w)

(* Kruskal as documented: the forced edge first, then by weight
   descending, ties to the higher edge id. *)
let reference_tree g w ~force:(fu, fv) =
  let parent = Array.init (Graph.num_nodes g) Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let join u v =
    let ru = find u and rv = find v in
    ru <> rv
    && begin
         parent.(ru) <- rv;
         true
       end
  in
  ignore (join fu fv);
  let order =
    List.sort
      (fun a b -> match Float.compare w.(b) w.(a) with 0 -> Int.compare b a | c -> c)
      (List.init (Graph.num_edges g) Fun.id)
  in
  let in_tree = Array.make (max 1 (Graph.num_edges g)) false in
  List.iter (fun e -> if join (Graph.src g e) (Graph.dst g e) then in_tree.(e) <- true) order;
  (in_tree, find)

let prop_spanning_tree_spans =
  QCheck.Test.make
    ~name:"spanning tree: holds the forced edge, spans each component, Kruskal order"
    ~count:300
    QCheck.(small_int)
    (fun seed ->
      let _, g, w = random_multigraph seed in
      let n = Graph.num_nodes g in
      let force = (n - 1, 0) in
      let t = Spanning_tree.compute ~force ~weight:(fun e -> w.(e)) g in
      let expected, _ = reference_tree g w ~force in
      (* The forced edge and the tree edges form a forest: adding them in
         that order never closes a cycle, and every edge's ends end up
         joined. *)
      let parent = Array.init n Fun.id in
      let rec find i = if parent.(i) = i then i else find parent.(i) in
      let join u v =
        let ru = find u and rv = find v in
        ru <> rv
        && begin
             parent.(ru) <- rv;
             true
           end
      in
      let forced_in = join (fst force) (snd force) in
      let acyclic =
        Graph.fold_edges g ~init:true ~f:(fun ok e ->
            if Spanning_tree.in_tree t e then join (Graph.src g e) (Graph.dst g e) && ok
            else ok)
      in
      let spans =
        Graph.fold_edges g ~init:true ~f:(fun ok e ->
            ok && find (Graph.src g e) = find (Graph.dst g e))
      in
      forced_in && acyclic && spans
      && Graph.fold_edges g ~init:true ~f:(fun ok e ->
             ok
             && Spanning_tree.in_tree t e = expected.(e)
             && Spanning_tree.is_chord t e = not expected.(e)))

(* Walks from the entry along random out-edges: one that reaches the
   exit is complete, one that stops early (step budget spent or no
   out-edge) is cut short and leaves a sink where it stopped. Given the
   chord counts and the sinks, [solve] must recover every tree edge's
   count, whatever the tree edges held before, and the number of walks
   as the forced edge's. *)
let prop_spanning_tree_solve =
  QCheck.Test.make ~name:"spanning tree: solve recovers random walks' tree edges"
    ~count:300
    QCheck.(small_int)
    (fun seed ->
      let rng, g, w = random_multigraph seed in
      let n = Graph.num_nodes g in
      let exit = n - 1 in
      let t = Spanning_tree.compute ~force:(exit, 0) ~weight:(fun e -> w.(e)) g in
      let truth = Array.make (max 1 (Graph.num_edges g)) 0 in
      let sinks = ref [] in
      let walks = 1 + Random.State.int rng 4 in
      for _ = 1 to walks do
        let rec walk v steps =
          if v = exit then ()
          else
            match Graph.out_edges g v with
            | [] -> sinks := v :: !sinks
            | _ when steps = 0 -> sinks := v :: !sinks
            | outs ->
                let e = List.nth outs (Random.State.int rng (List.length outs)) in
                truth.(e) <- truth.(e) + 1;
                walk (Graph.dst g e) (steps - 1)
        in
        walk 0 (Random.State.int rng 40)
      done;
      let counts =
        Array.mapi
          (fun e c ->
            if e < Graph.num_edges g && Spanning_tree.in_tree t e then
              Random.State.int rng 100
            else c)
          truth
      in
      let forced = Spanning_tree.solve t g ~sinks:!sinks counts in
      forced = walks && counts = truth)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_dominators_brute_force;
    QCheck_alcotest.to_alcotest prop_potential_hot_paths_sound;
    QCheck_alcotest.to_alcotest prop_potential_contains_executed_hot;
    QCheck_alcotest.to_alcotest prop_numbering_bijection_random;
    QCheck_alcotest.to_alcotest prop_event_counting_preserves_random;
    QCheck_alcotest.to_alcotest prop_smart_numbering_bijection;
    QCheck_alcotest.to_alcotest prop_tracing_prefix_decodes;
    QCheck_alcotest.to_alcotest prop_flowval_union_comm;
    QCheck_alcotest.to_alcotest prop_flowval_union_assoc;
    QCheck_alcotest.to_alcotest prop_flowval_total_additive;
    QCheck_alcotest.to_alcotest prop_flowval_shift;
    QCheck_alcotest.to_alcotest prop_spanning_tree_spans;
    QCheck_alcotest.to_alcotest prop_spanning_tree_solve;
  ]
