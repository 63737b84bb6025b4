module Graph = Ppp_cfg.Graph
module Loop = Ppp_cfg.Loop
module Cfg_view = Ppp_ir.Cfg_view
module Ir = Ppp_ir.Ir

type t = int array

let create ~nedges = Array.make (max 1 nedges) 0
let incr t e = t.(e) <- t.(e) + 1
let add t e n = t.(e) <- t.(e) + n
let freq t e = t.(e)
let total t = Array.fold_left ( + ) 0 t

let complete t g tree ~sinks = ignore (Ppp_cfg.Spanning_tree.solve tree g ~sinks t)

type program = (string, t) Hashtbl.t

let create_program (p : Ir.program) =
  let tbl = Hashtbl.create 17 in
  List.iter
    (fun (r : Ir.routine) ->
      let view = Cfg_view.of_routine r in
      Hashtbl.replace tbl r.name
        (create ~nedges:(Graph.num_edges (Cfg_view.graph view))))
    p.routines;
  tbl

let routine prog name = Hashtbl.find prog name
let routine_freq prog name e = (Hashtbl.find prog name).(e)

let entry_count prog (p : Ir.program) name =
  let r = Ir.routine p name in
  let view = Cfg_view.of_routine r in
  let counts = routine prog name in
  List.fold_left
    (fun acc e -> acc + counts.(e))
    0
    (Graph.in_edges (Cfg_view.graph view) (Cfg_view.exit view))

let program_unit_flow prog (p : Ir.program) =
  List.fold_left
    (fun acc (r : Ir.routine) ->
      let view = Cfg_view.of_routine r in
      let g = Cfg_view.graph view in
      let counts = routine prog r.name in
      let loops = Loop.compute g ~root:(Cfg_view.entry view) in
      let invocations =
        List.fold_left
          (fun a e -> a + counts.(e))
          0
          (Graph.in_edges g (Cfg_view.exit view))
      in
      let back_traversals =
        List.fold_left
          (fun a e -> a + counts.(e))
          0 (Loop.breakable_edges loops)
      in
      acc + invocations + back_traversals)
    0 p.routines
