type t = {
  nnodes : int;
  member : bool array;
  in_tree : bool array;
  force : (Graph.node * Graph.node) option;
}

(* Union-find for Kruskal. *)
let find parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  let root = go i in
  let rec compress i =
    if parent.(i) <> root then begin
      let next = parent.(i) in
      parent.(i) <- root;
      compress next
    end
  in
  compress i;
  root

let compute ?force ?(member = fun _ -> true) ~weight g =
  let n = Graph.num_nodes g in
  let nedges = Graph.num_edges g in
  let mem = Array.make (max 1 nedges) false in
  let w = Array.make (max 1 nedges) 0.0 in
  (* Highest id first, so the stable sort breaks weight ties that way. *)
  let candidates =
    Graph.fold_edges g ~init:[] ~f:(fun acc e ->
        if member e then begin
          mem.(e) <- true;
          w.(e) <- weight e;
          e :: acc
        end
        else acc)
  in
  let sorted = List.stable_sort (fun a b -> Float.compare w.(b) w.(a)) candidates in
  let parent = Array.init n Fun.id in
  let in_tree = Array.make (max 1 nedges) false in
  let join u v =
    let ru = find parent u and rv = find parent v in
    ru <> rv
    && begin
         parent.(ru) <- rv;
         true
       end
  in
  Option.iter (fun (u, v) -> ignore (join u v)) force;
  List.iter
    (fun e -> if join (Graph.src g e) (Graph.dst g e) then in_tree.(e) <- true)
    sorted;
  { nnodes = n; member = mem; in_tree; force }

let in_tree t e = t.in_tree.(e)
let is_chord t e = t.member.(e) && not t.in_tree.(e)

(* Peel the forest leaf by leaf: a node with one unsolved tree edge left
   has every other edge's count known, so conservation at the node fixes
   that edge's count, which then counts as known at its other end. *)
let solve t g ?(sinks = []) counts =
  let fsrc, fdst =
    match t.force with
    | Some f -> f
    | None -> invalid_arg "Spanning_tree.solve: the tree has no forced edge"
  in
  let n = t.nnodes and nedges = Graph.num_edges g in
  (* Tree edges by node; id [nedges] stands for the forced edge, which is
     in the tree unless it is a self-loop. *)
  let adj = Array.make n [] in
  let link x u v =
    adj.(u) <- x :: adj.(u);
    adj.(v) <- x :: adj.(v)
  in
  if fsrc <> fdst then link nedges fsrc fdst;
  Graph.iter_edges g (fun e ->
      if t.in_tree.(e) then link e (Graph.src g e) (Graph.dst g e));
  (* known inflow minus known outflow, per node *)
  let excess = Array.make n 0 in
  Graph.iter_edges g (fun e ->
      if not t.in_tree.(e) then begin
        let c = counts.(e) in
        let u = Graph.src g e and v = Graph.dst g e in
        excess.(u) <- excess.(u) - c;
        excess.(v) <- excess.(v) + c
      end);
  List.iter
    (fun s ->
      excess.(s) <- excess.(s) - 1;
      excess.(fsrc) <- excess.(fsrc) + 1)
    sinks;
  let ends x = if x = nedges then (fsrc, fdst) else (Graph.src g x, Graph.dst g x) in
  let solved = Array.make (nedges + 1) false in
  let deg = Array.map List.length adj in
  let forced = ref 0 in
  let leaves = ref [] in
  for v = n - 1 downto 0 do
    if deg.(v) = 1 then leaves := v :: !leaves
  done;
  while !leaves <> [] do
    let v = List.hd !leaves in
    leaves := List.tl !leaves;
    if deg.(v) = 1 then begin
      let x = List.find (fun x -> not solved.(x)) adj.(v) in
      let u, w = ends x in
      (* [x] enters [v] when [w = v], else leaves it *)
      let c = if w = v then - excess.(v) else excess.(v) in
      let other = if w = v then u else w in
      excess.(other) <- (if w = v then excess.(other) - c else excess.(other) + c);
      solved.(x) <- true;
      if x = nedges then forced := c else counts.(x) <- c;
      deg.(v) <- 0;
      deg.(other) <- deg.(other) - 1;
      if deg.(other) = 1 then leaves := other :: !leaves
    end
  done;
  !forced
