type loop = {
  header : Graph.node;
  back_edges : Graph.edge list;
  body : Graph.node list;
}

type t = {
  graph : Graph.t;
  loops : loop list;
  back_edge_set : bool array; (* edge -> is back edge *)
  irreducible : Graph.edge list;
  depth : int array;
}

let natural_loop_body g header tails =
  (* Header plus every node that reaches a tail backwards without going
     through the header. *)
  let n = Graph.num_nodes g in
  let in_body = Array.make n false in
  in_body.(header) <- true;
  let rec go v =
    if not in_body.(v) then begin
      in_body.(v) <- true;
      List.iter go (Graph.preds g v)
    end
  in
  List.iter go tails;
  let body = ref [] in
  for v = n - 1 downto 0 do
    if in_body.(v) then body := v :: !body
  done;
  !body

let compute ?dom g ~root =
  let n = Graph.num_nodes g in
  let dom = match dom with Some d -> d | None -> Dom.compute g ~root in
  let retreating = Order.retreating_edges g root in
  let back, irreducible =
    List.partition
      (fun e -> Dom.dominates dom (Graph.dst g e) (Graph.src g e))
      retreating
  in
  let back_edge_set = Array.make (max 1 (Graph.num_edges g)) false in
  List.iter (fun e -> back_edge_set.(e) <- true) back;
  (* Group back edges by header. *)
  let by_header = Hashtbl.create 7 in
  List.iter
    (fun e ->
      let h = Graph.dst g e in
      let existing = try Hashtbl.find by_header h with Not_found -> [] in
      Hashtbl.replace by_header h (e :: existing))
    back;
  let loops =
    Hashtbl.fold
      (fun header edges acc ->
        let edges = List.rev edges in
        let tails = List.map (Graph.src g) edges in
        let body = natural_loop_body g header tails in
        { header; back_edges = edges; body } :: acc)
      by_header []
    |> List.sort (fun a b -> compare a.header b.header)
  in
  let depth = Array.make n 0 in
  List.iter
    (fun l -> List.iter (fun v -> depth.(v) <- depth.(v) + 1) l.body)
    loops;
  { graph = g; loops; back_edge_set; irreducible; depth }

let loops t = t.loops
let is_back_edge t e = e < Array.length t.back_edge_set && t.back_edge_set.(e)
let irreducible_edges t = t.irreducible

let breakable_edges t =
  let back =
    List.concat_map (fun l -> l.back_edges) t.loops |> List.sort compare
  in
  List.sort compare (back @ t.irreducible)

let depth t v = t.depth.(v)

let avg_trip_count t loop ~freq =
  let g = t.graph in
  let back_freq =
    List.fold_left (fun acc e -> acc + freq e) 0 loop.back_edges
  in
  let entry_freq =
    List.fold_left
      (fun acc e -> if is_back_edge t e then acc else acc + freq e)
      0
      (Graph.in_edges g loop.header)
  in
  if entry_freq = 0 then if back_freq = 0 then 0.0 else max_float
  else 1.0 +. (float_of_int back_freq /. float_of_int entry_freq)
