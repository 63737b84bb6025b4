module Graph = Ppp_cfg.Graph
module Cfg_view = Ppp_ir.Cfg_view

type t = Graph.edge list

(* Lexicographic by edge id, a prefix before its extensions: the order
   polymorphic compare gives int lists, without its generic walk. *)
let rec compare (a : t) (b : t) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys -> ( match Int.compare x y with 0 -> compare xs ys | c -> c)
let equal (a : t) b = a = b

(* FNV-1a over every edge id, then a shift to fold the high bits into the
   low ones a table index reads. *)
let hash p =
  let rec go h = function [] -> h | e :: rest -> go ((h lxor e) * 0x100000001b3) rest in
  let h = go 0x811c9dc5 p in
  (h lxor (h lsr 31)) land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let blocks view p =
  List.map (fun e -> Graph.src (Cfg_view.graph view) e) p

let branches view p = Cfg_view.num_branch_edges_on view p

let pp view ppf p =
  let r = Cfg_view.routine view in
  let labels =
    List.map (fun b -> r.Ppp_ir.Ir.blocks.(b).Ppp_ir.Ir.label) (blocks view p)
  in
  Format.pp_print_string ppf (String.concat ">" labels)
