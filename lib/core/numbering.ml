module Graph = Ppp_cfg.Graph
module Dag = Ppp_cfg.Dag
module Core = Ppp_cfg.Path_numbering
module Routine_ctx = Ppp_flow.Routine_ctx

type order = Core.order =
  | Ball_larus
  | Freq_decreasing of (Graph.edge -> float)

type t = {
  ctx : Routine_ctx.t;
  hot : bool array;
  core : Core.t;
  prefix : int array; (* node -> number of hot entry-to-node prefixes *)
}

let compute ctx ~hot ~order =
  let core = Core.compute (Routine_ctx.dag ctx) ~hot ~order in
  let g = Routine_ctx.graph ctx in
  let prefix = Array.make (Graph.num_nodes g) 0 in
  prefix.(Routine_ctx.entry ctx) <- 1;
  (* A prefix extends to at least one hot path, so prefix counts stay
     below NumPaths and fit whenever it does. *)
  if Core.fits core then
    List.iter
      (fun v ->
        List.iter
          (fun e ->
            if hot.(e) then
              prefix.(Graph.dst g e) <- prefix.(Graph.dst g e) + prefix.(v))
          (Graph.out_edges g v))
      (Dag.topological (Routine_ctx.dag ctx));
  { ctx; hot; core; prefix }

let fits t = Core.fits t.core
let num_paths t = Core.num_paths t.core
let num_paths_at t v = Core.num_paths_at t.core v
let value t e = Core.value t.core e

let paths_through t e =
  let g = Routine_ctx.graph t.ctx in
  if not t.hot.(e) then 0
  else t.prefix.(Graph.src g e) * Core.num_paths_at t.core (Graph.dst g e)

let decode t n = Core.decode t.core n
let number_of_path t path = Core.number_of_path t.core path
