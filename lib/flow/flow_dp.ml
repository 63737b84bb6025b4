module Graph = Ppp_cfg.Graph

type kind = Definite | Potential

type t = {
  ctx : Routine_ctx.t;
  kind : kind;
  node_vals : Flowval.t array;
  edge_vals : Flowval.t array;
}

let compute ctx kind =
  let g = Routine_ctx.graph ctx in
  let exit = Routine_ctx.exit ctx in
  let node_vals = Array.make (Graph.num_nodes g) Flowval.empty in
  let edge_vals = Array.make (max 1 (Graph.num_edges g)) Flowval.empty in
  node_vals.(exit) <- Flowval.singleton ~f:(Routine_ctx.total_freq ctx) ~b:0 ~delta:1;
  let process v =
    if v <> exit then begin
      let acc = ref Flowval.empty in
      List.iter
        (fun e ->
          let tgt = Graph.dst g e in
          let ev =
            match kind with
            | Definite ->
                let f_s = Routine_ctx.node_flow ctx tgt - Routine_ctx.freq ctx e in
                Flowval.map_f node_vals.(tgt) ~f:(fun f _b ->
                    if f > f_s then Some (f - f_s) else None)
            | Potential ->
                let fe = Routine_ctx.freq ctx e in
                Flowval.map_f node_vals.(tgt) ~f:(fun f _b -> Some (min f fe))
          in
          edge_vals.(e) <- ev;
          let shifted =
            if Routine_ctx.is_branch ctx e then Flowval.shift_branch ev else ev
          in
          acc := Flowval.union !acc shifted)
        (Graph.out_edges g v);
      node_vals.(v) <- !acc
    end
  in
  List.iter process (List.rev (Ppp_cfg.Dag.topological (Routine_ctx.dag ctx)));
  { ctx; kind; node_vals; edge_vals }

let kind t = t.kind
(* [M[entry]]: flow values of whole entry-to-exit paths. *)
let at_entry t = t.node_vals.(Routine_ctx.entry t.ctx)
let total t ~metric = Flowval.total_flow (at_entry t) ~metric

exception Done

let reconstruct t ~cutoff ~max_paths =
  let ctx = t.ctx in
  let g = Routine_ctx.graph ctx in
  let exit = Routine_ctx.exit ctx in
  let results = ref [] in
  let emitted = ref 0 in
  (* For potential flow the [g >= f] relaxation makes the Δ debits
     meaningless (a hot extension would absorb the budget intended for a
     cooler path), so Potential explores every candidate and deduplicates
     emitted paths instead — bounded by a visit budget since that search
     can be superlinear. *)
  let budget = ref (1000 * max_paths) in
  let seen = Hashtbl.create 64 in
  let pf path =
    List.fold_left
      (fun acc e -> min acc (Routine_ctx.freq ctx e))
      (Routine_ctx.total_freq ctx) path
  in
  let emit path f' b0 =
    let record triple =
      results := triple :: !results;
      incr emitted;
      if !emitted >= max_paths then raise Done
    in
    match t.kind with
    | Definite -> record (path, f', b0)
    | Potential ->
        if not (Hashtbl.mem seen path) then begin
          Hashtbl.replace seen path ();
          (* Report the exact potential of the concrete path rather than
             the (possibly lower) entry value that led here. *)
          record (path, pf path, b0)
        end
  in
  (* [f'] is the path's flow value fixed at the entry; [b0] its total
     branch count. [f]/[b] are the running requirement as we walk down. *)
  let rec enumerate v path_rev f b f' b0 delta =
    decr budget;
    if !budget <= 0 then raise Done;
    if v = exit then emit (List.rev path_rev) f' b0
    else begin
      let remaining = ref delta in
      let try_candidate e g_val c d =
        if (!remaining > 0 || t.kind = Potential) && d > 0 then begin
          let debit = min !remaining d in
          let child_f =
            match t.kind with
            | Definite ->
                let tgt = Graph.dst g e in
                f + Routine_ctx.node_flow ctx tgt - Routine_ctx.freq ctx e
            | Potential -> g_val
          in
          enumerate (Graph.dst g e) (e :: path_rev) child_f c f' b0 debit;
          remaining := !remaining - debit
        end
      in
      List.iter
        (fun e ->
          let c = if Routine_ctx.is_branch ctx e then b - 1 else b in
          if c >= 0 then begin
            match t.kind with
            | Definite ->
                let d = Flowval.find t.edge_vals.(e) ~f ~b:c in
                try_candidate e f c d
            | Potential ->
                (* Modified selection: any entry with g >= f, largest
                   first so the hottest extension is explored first. *)
                let entries =
                  Flowval.fold t.edge_vals.(e) ~init:[]
                    ~f:(fun acc ~f:gv ~b:bv ~delta:d ->
                      if bv = c && gv >= f then (gv, d) :: acc else acc)
                  |> List.sort (fun (a, _) (b, _) -> compare b a)
                in
                List.iter (fun (gv, d) -> try_candidate e gv c d) entries
          end)
        (Graph.out_edges g v)
    end
  in
  (try
     List.iter
       (fun (f, b, delta) ->
         if f * b > cutoff then
           enumerate (Routine_ctx.entry ctx) [] f b f b delta)
       (Flowval.entries_decreasing_flow (at_entry t))
   with Done -> ());
  List.rev !results

let definite_of_path ctx path =
  let g = Routine_ctx.graph ctx in
  let deficit =
    List.fold_left
      (fun acc e ->
        acc + Routine_ctx.node_flow ctx (Graph.dst g e) - Routine_ctx.freq ctx e)
      0 path
  in
  max 0 (Routine_ctx.total_freq ctx - deficit)

let potential_of_path ctx path =
  List.fold_left
    (fun acc e -> min acc (Routine_ctx.freq ctx e))
    (Routine_ctx.total_freq ctx)
    path

let potential_hot_paths ctx ~max_paths =
  let g = Routine_ctx.graph ctx in
  let entry = Routine_ctx.entry ctx in
  let exit = Routine_ctx.exit ctx in
  let nedges = Graph.num_edges g in
  if nedges = 0 then []
  else begin
    (* The subgraph of edges with frequency >= t, pruned to edges on a
       complete entry-to-exit path. Returns None if entry cannot reach
       exit at all at this threshold. *)
    let qualifying t =
      let keep = Array.init nedges (fun e -> Routine_ctx.freq ctx e >= t) in
      let n = Graph.num_nodes g in
      let fwd = Array.make n false in
      let rec down v =
        if not fwd.(v) then begin
          fwd.(v) <- true;
          List.iter (fun e -> if keep.(e) then down (Graph.dst g e)) (Graph.out_edges g v)
        end
      in
      down entry;
      let bwd = Array.make n false in
      let rec up v =
        if not bwd.(v) then begin
          bwd.(v) <- true;
          List.iter (fun e -> if keep.(e) then up (Graph.src g e)) (Graph.in_edges g v)
        end
      in
      up exit;
      Graph.iter_edges g (fun e ->
          if keep.(e) && not (fwd.(Graph.src g e) && bwd.(Graph.dst g e)) then
            keep.(e) <- false);
      if fwd.(exit) then Some keep else None
    in
    (* Count complete paths in a qualifying subgraph, saturating. *)
    let count keep =
      let n = Graph.num_nodes g in
      let c = Array.make n 0 in
      c.(exit) <- 1;
      List.iter
        (fun v ->
          if v <> exit then
            c.(v) <-
              List.fold_left
                (fun acc e ->
                  if keep.(e) then min (max_paths + 1) (acc + c.(Graph.dst g e))
                  else acc)
                0 (Graph.out_edges g v))
        (List.rev (Ppp_cfg.Dag.topological (Routine_ctx.dag ctx)));
      c.(entry)
    in
    (* Lower the threshold over the distinct frequencies while the count
       stays within the cap. *)
    let freqs =
      Graph.fold_edges g ~init:[] ~f:(fun acc e -> Routine_ctx.freq ctx e :: acc)
      |> List.filter (fun f -> f > 0)
      |> List.sort_uniq compare |> List.rev
    in
    let best = ref None in
    (try
       List.iter
         (fun t ->
           match qualifying t with
           | None -> ()
           | Some keep ->
               if count keep <= max_paths then best := Some keep else raise Exit)
         freqs
     with Exit -> ());
    match !best with
    | None -> []
    | Some keep ->
        (* Enumerate every complete path of the kept subgraph. *)
        let results = ref [] in
        let rec walk v path_rev =
          if v = exit then begin
            let path = List.rev path_rev in
            let pf = potential_of_path ctx path in
            let b =
              List.fold_left
                (fun acc e -> if Routine_ctx.is_branch ctx e then acc + 1 else acc)
                0 path
            in
            results := (path, pf, b) :: !results
          end
          else
            List.iter
              (fun e -> if keep.(e) then walk (Graph.dst g e) (e :: path_rev))
              (Graph.out_edges g v)
        in
        walk entry [];
        List.rev !results
  end
