module Graph = Ppp_cfg.Graph
module Spanning_tree = Ppp_cfg.Spanning_tree
module Routine_ctx = Ppp_flow.Routine_ctx

type t = {
  init : int;
  incs : int array; (* DAG edge -> increment *)
  chord : bool array;
}

let compute ctx ~hot ~numbering ~weight =
  let g = Routine_ctx.graph ctx in
  let n = Graph.num_nodes g in
  let tree = Spanning_tree.compute ~member:(fun e -> hot.(e)) ~weight g in
  (* Node potentials over the (undirected) spanning forest: crossing a
     tree edge u -> v in its own direction adds Val. *)
  let phi = Array.make n 0 in
  let visited = Array.make n false in
  let tree_adj = Array.make n [] in
  Graph.iter_edges g (fun e ->
      if Spanning_tree.in_tree tree e then begin
        let u = Graph.src g e and v = Graph.dst g e in
        tree_adj.(u) <- (e, v, true) :: tree_adj.(u);
        tree_adj.(v) <- (e, u, false) :: tree_adj.(v)
      end);
  let rec dfs v =
    visited.(v) <- true;
    List.iter
      (fun (e, w, forward) ->
        if not visited.(w) then begin
          let dv = Numbering.value numbering e in
          phi.(w) <- (if forward then phi.(v) + dv else phi.(v) - dv);
          dfs w
        end)
      tree_adj.(v)
  in
  (* Root the potential at the entry so phi(entry) = 0; other components
     (cold islands) get their own zero-based potentials. *)
  dfs (Routine_ctx.entry ctx);
  for v = 0 to n - 1 do
    if not visited.(v) then dfs v
  done;
  (* Placement plans keep [t] for as long as a session keeps them, so
     it holds the chord set, not the tree. *)
  let incs = Array.make (max 1 (Graph.num_edges g)) 0 in
  let chord = Array.make (max 1 (Graph.num_edges g)) false in
  Graph.iter_edges g (fun e ->
      if Spanning_tree.is_chord tree e then begin
        chord.(e) <- true;
        let u = Graph.src g e and v = Graph.dst g e in
        incs.(e) <- Numbering.value numbering e + phi.(u) - phi.(v)
      end);
  { init = phi.(Routine_ctx.exit ctx); incs; chord }

let init t = t.init
let inc t e = t.incs.(e)
let is_chord t e = t.chord.(e)
let sum_along t path = List.fold_left (fun acc e -> acc + t.incs.(e)) t.init path
