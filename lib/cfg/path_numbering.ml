type order = Ball_larus | Freq_decreasing of (Graph.edge -> float)

type t = {
  dag : Dag.t;
  hot : bool array;
  num_paths : int array; (* node -> NumPaths, saturated at max_int *)
  value : int array; (* DAG edge -> Val *)
  fits : bool;
}

let compute dag ~hot ~order =
  let g = Dag.dag dag in
  let exit = Dag.exit dag in
  let num_paths = Array.make (Graph.num_nodes g) 0 in
  let value = Array.make (max 1 (Graph.num_edges g)) 0 in
  let fits = ref true in
  num_paths.(exit) <- 1;
  List.iter
    (fun v ->
      if v <> exit then begin
        let hot_out = List.filter (fun e -> hot.(e)) (Graph.out_edges g v) in
        let sorted =
          match order with
          | Ball_larus ->
              List.stable_sort
                (fun a b ->
                  compare num_paths.(Graph.dst g a) num_paths.(Graph.dst g b))
                hot_out
          | Freq_decreasing freq ->
              List.stable_sort (fun a b -> compare (freq b) (freq a)) hot_out
        in
        List.iter
          (fun e ->
            value.(e) <- num_paths.(v);
            let n = num_paths.(Graph.dst g e) in
            if num_paths.(v) > max_int - n then begin
              fits := false;
              num_paths.(v) <- max_int
            end
            else num_paths.(v) <- num_paths.(v) + n)
          sorted
      end)
    (List.rev (Dag.topological dag));
  { dag; hot; num_paths; value; fits = !fits }

let fits t = t.fits
let num_paths t = t.num_paths.(Dag.entry t.dag)
let num_paths_at t v = t.num_paths.(v)
let value t e = t.value.(e)

(* Walk from the entry, at each node taking the numbered out-edge with
   Val(e) <= remaining < Val(e) + NumPaths(dst e): the one with the
   largest Val not exceeding remaining. Stops at the first node [stop]
   accepts and returns the DAG edges taken and what is left of [n]. *)
let descend t n ~stop =
  let g = Dag.dag t.dag in
  let exit = Dag.exit t.dag in
  let rec walk v remaining acc =
    if stop v then (List.rev acc, remaining)
    else if v = exit then invalid_arg "Path_numbering: walked past the stop node"
    else begin
      let best =
        List.fold_left
          (fun best e ->
            if not t.hot.(e) || t.value.(e) > remaining then best
            else
              match best with
              | Some b when t.value.(b) >= t.value.(e) -> best
              | _ -> Some e)
          None (Graph.out_edges g v)
      in
      match best with
      | Some e -> walk (Graph.dst g e) (remaining - t.value.(e)) (e :: acc)
      | None -> invalid_arg "Path_numbering.decode: stuck (inconsistent edge set)"
    end
  in
  walk (Dag.entry t.dag) n []

let decode t n =
  if (not t.fits) || n < 0 || n >= num_paths t then
    invalid_arg
      (Printf.sprintf "Path_numbering.decode: %d out of [0,%d)" n (num_paths t));
  let exit = Dag.exit t.dag in
  let path, remaining = descend t n ~stop:(fun v -> v = exit) in
  assert (remaining = 0);
  path

let number_of_path t path =
  List.fold_left (fun acc e -> acc + t.value.(e)) 0 path

(* {2 Tracing} *)

type tracing = t

let number_all g ~entry ~exit ~break =
  let dag = Dag.convert g ~entry ~exit ~break in
  let all = Array.make (max 1 (Graph.num_edges (Dag.dag dag))) true in
  compute dag ~hot:all ~order:Ball_larus

(* Cut edges so that every node but the entry has at most [limit] paths
   to the exit. The nodes are visited in reverse topological order of
   [dag]; cutting only removes original edges and adds dummies out of the
   entry or into the exit, so that order stays valid. A node over the
   limit has all its original out-edges cut, each then counting as one
   path (its exit dummy), so the counts above it start small again and
   the next cut is as far up as possible. The entry sums at most one
   term per edge and one per header, each at most [limit], so with
   [limit = max_int / (nodes + edges + 1)] its count fits too. *)
let choose_cuts g dag =
  let dg = Dag.dag dag in
  let entry = Dag.entry dag and exit = Dag.exit dag in
  let limit = max_int / (Graph.num_nodes g + Graph.num_edges g + 1) in
  let np = Array.make (Graph.num_nodes dg) 0 in
  np.(exit) <- 1;
  let cuts = ref [] in
  List.iter
    (fun v ->
      if v <> exit && v <> entry then begin
        let outs = Graph.out_edges dg v in
        let sum =
          List.fold_left
            (fun acc e ->
              let n = np.(Graph.dst dg e) in
              if acc > max_int - n then max_int else acc + n)
            0 outs
        in
        if sum <= limit then np.(v) <- sum
        else begin
          np.(v) <- List.length outs;
          List.iter
            (fun e ->
              match Dag.provenance dag e with
              | Dag.Original o -> cuts := o :: !cuts
              | Dag.Dummy_entry _ | Dag.Dummy_exit _ -> ())
            outs
        end
      end)
    (List.rev (Dag.topological dag));
  !cuts

(* Blocks unreachable from the entry never run, but the engines accept
   unchecked programs, and an unreachable cycle would leave the DAG
   cyclic: their out-edges are broken too. *)
let tracing g ~entry ~exit ~ends =
  let reach = Order.reachable g entry in
  let dead =
    Graph.fold_edges g ~init:[] ~f:(fun acc e ->
        if reach.(Graph.src g e) then acc else e :: acc)
  in
  let base = List.sort_uniq compare (ends @ dead) in
  let nb = number_all g ~entry ~exit ~break:base in
  let nb =
    if fits nb then nb
    else
      number_all g ~entry ~exit
        ~break:(List.sort_uniq compare (base @ choose_cuts g nb.dag))
  in
  if not (fits nb) then
    invalid_arg "Path_numbering.tracing: cuts left an overflow";
  nb

let step tr e =
  match Dag.of_original tr.dag e with
  | Some de -> value tr de
  | None -> (
      match Dag.exit_dummy tr.dag e with
      | Some d -> value tr d
      | None -> invalid_arg "Path_numbering.step: unknown edge")

let restart tr e =
  match Dag.header_of_broken tr.dag e with
  | None -> -1
  | Some h -> ( match Dag.entry_dummy tr.dag h with Some d -> value tr d | None -> 0)

let decode_segments tr segs =
  List.concat_map (fun n -> Dag.cfg_path_of_dag_path tr.dag (decode tr n)) segs

(* The register so far is the number of the path that leaves [at] along
   Val-0 edges (a node's first out-edge in Ball–Larus order has Val 0),
   so decoding it walks the segment's own edges up to [at]. *)
let decode_prefix tr n ~at =
  if n < 0 || n >= num_paths tr then
    invalid_arg
      (Printf.sprintf "Path_numbering.decode_prefix: %d out of [0,%d)" n
         (num_paths tr));
  Dag.cfg_path_of_dag_path tr.dag (fst (descend tr n ~stop:(fun v -> v = at)))
