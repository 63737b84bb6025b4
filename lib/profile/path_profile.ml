module Cfg_view = Ppp_ir.Cfg_view
module Ir = Ppp_ir.Ir

type t = int ref Path.Tbl.t

let create () : t = Path.Tbl.create 64

let add t p n =
  match Path.Tbl.find_opt t p with
  | Some r -> r := !r + n
  | None -> Path.Tbl.replace t p (ref n)

let record t p = add t p 1
let freq t p = match Path.Tbl.find_opt t p with Some r -> !r | None -> 0
let num_distinct t = Path.Tbl.length t
let iter t f = Path.Tbl.iter (fun p r -> f p !r) t

let fold t ~init ~f =
  Path.Tbl.fold (fun p r acc -> f acc p !r) t init

let total_flow t view metric =
  fold t ~init:0 ~f:(fun acc p n ->
      acc + Metric.flow metric ~freq:n ~branches:(Path.branches view p))

type program = (string, t) Hashtbl.t

let create_program (p : Ir.program) =
  let tbl = Hashtbl.create 17 in
  List.iter (fun (r : Ir.routine) -> Hashtbl.replace tbl r.name (create ())) p.routines;
  tbl

let routine prog name = Hashtbl.find prog name
let iter_routines prog f = Hashtbl.iter f prog

let program_flow prog ~views metric =
  Hashtbl.fold (fun name t acc -> acc + total_flow t (views name) metric) prog 0

let program_distinct prog = Hashtbl.fold (fun _ t acc -> acc + num_distinct t) prog 0

let hot_paths prog ~views ~metric ~threshold =
  (* One flow computation per path: [Path.branches] walks the whole edge
     list, so compute it once and reuse the result for both the total
     (the denominator of the cutoff) and the per-path cutoff test. *)
  let all = ref [] in
  let total = ref 0 in
  iter_routines prog (fun name t ->
      let view = views name in
      iter t (fun p n ->
          let flow = Metric.flow metric ~freq:n ~branches:(Path.branches view p) in
          total := !total + flow;
          if flow > 0 then all := (name, p, flow) :: !all));
  let cutoff = threshold *. float_of_int !total in
  List.filter (fun (_, _, flow) -> float_of_int flow >= cutoff) !all
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

