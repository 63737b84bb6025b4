(* The pre-lowering pass: compile each routine, once per run, into a
   contiguous opcode array the VM can dispatch on without touching the
   AST again. Lowering resolves everything resolvable ahead of time:

   - operand shapes become distinct opcodes (register indices and
     immediates inlined, no [Ir.operand] match at runtime);
   - array names become direct [int array] references;
   - per-instruction fuel/cost charges are batched: each straight-line
     run of pure instructions is prefixed by a single [Fuel] opcode
     carrying the run's instruction count and total cost (the parallel
     [costs] array keeps the per-op charges so fuel exhaustion can bill
     an exact remainder — see [Vm]);
   - terminators are fused with their edge bookkeeping: the edge id,
     whether it ends the current path, the edge's Ball–Larus value and
     restart value for the path tracer, the specialized instrumentation
     actions and their precomputed total cost, and which of these give
     the edge any work at all (the [work] bits), all sit in the opcode;
   - register indices are validated here, so the VM may use unchecked
     register accesses; an out-of-range index lowers to a [Trap] that
     faults only if executed, like the reference engine's lazy error.

   Calls and unknown names stay lazy: a [Call] charges for itself (it can
   push a frame, so it cannot sit inside a batched segment), and unknown
   arrays/routines lower to raising opcodes with the reference engine's
   exact messages.

   Lowering is split in two so its expensive half can be memoized across
   runs: the *structural* plan (everything above, with empty
   instrumentation actions) depends only on the routine body, its
   register file, and the program environment (routine order, arrays);
   *specialization* rebuilds just the terminator opcodes to attach the
   run's instrumentation pre-actions. A {!cache} keyed by routine
   fingerprint keeps structural plans warm between runs; mutable run
   state (edge counters, path count tables, array contents) is always
   fresh, so a cached run is byte-identical to a cold one.

   A run that counts edges without tracing paths counts only the chords
   of a spanning tree of each routine's CFG: [mark_chords] rebuilds the
   terminators the same way specialization does, setting the chord bit,
   and the cache keeps the tree and the marked stream beside the
   structural plan. No other run computes a tree. *)

module Graph = Ppp_cfg.Graph
module Loop = Ppp_cfg.Loop
module Path_numbering = Ppp_cfg.Path_numbering
module Spanning_tree = Ppp_cfg.Spanning_tree
module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Edge_profile = Ppp_profile.Edge_profile
module Static_est = Ppp_profile.Static_est
module Fingerprint = Ppp_resilience.Fingerprint
module Obs = Ppp_obs.Metrics

let m_lower_hit = Obs.counter "session.lower.hit"
let m_lower_miss = Obs.counter "session.lower.miss"
let m_lower_specialize = Obs.counter "session.lower.specialize"
let m_lower_env_flush = Obs.counter "session.lower.env_flush"

type arr = { arr_name : string; data : int array }

(* [Instr_rt.action] with the table resolved: the VM's traverse loop
   matches on these without the per-action table-option match. *)
type pre_action =
  | Set_reg of int
  | Add_reg of int
  | Bump of Instr_rt.Table.t (* Count_r / Count_checked *)
  | Bump_plus of Instr_rt.Table.t * int (* Count_r_plus / Count_checked_plus *)
  | Bump_const of Instr_rt.Table.t * int (* Count_const *)
  | Bump_none (* counting action on an uninstrumented routine *)

type edge_ops = {
  edge : int;
  ends_path : bool;
  path_add : int; (* Path_numbering.step: added to the trace register *)
  path_restart : int;
      (* Path_numbering.restart: the trace register after a path end or
         cut edge; -1 on an edge that is neither *)
  acts : pre_action array;
  acts_cost : int; (* total Cost.action of the list *)
  act_kinds : int array; (* Instr_rt.action_index per action, for metrics *)
  work : int; (* work_tracer, work_actions and work_chord bits *)
}

(* What an edge asks of [Vm.traverse], one bit per kind of work: the
   tracer's (a non-zero [path_add], a path end or a cut), its actions (a
   non-empty [acts]), and counting it (a chord of the run's spanning
   tree, only in runs that count edges without tracing paths). *)
let work_tracer = 1
let work_actions = 2
let work_chord = 4

type op =
  | Fuel of { count : int; cost : int }
      (* charge for the next [count] ops at once; total cost [cost] *)
  | Mov_i of { dst : int; imm : int }
  | Mov_r of { dst : int; src : int }
  | Bin_rr of { dst : int; op : Ir.binop; a : int; b : int }
  | Bin_ri of { dst : int; op : Ir.binop; a : int; imm : int }
  | Bin_ir of { dst : int; op : Ir.binop; imm : int; b : int }
  | Bin_ii of { dst : int; op : Ir.binop; ia : int; ib : int }
  | Load_r of { dst : int; data : int array; arr : arr; idx : int }
  | Load_i of { dst : int; data : int array; arr : arr; idx : int }
  | Store_rr of { data : int array; arr : arr; idx : int; src : int }
  | Store_ri of { data : int array; arr : arr; idx : int; imm : int }
  | Store_ir of { data : int array; arr : arr; iidx : int; src : int }
  | Store_ii of { data : int array; arr : arr; iidx : int; imm : int }
      (* data == arr.data, inlined so the hot path skips an indirection;
         arr is only touched on a bounds error *)
  | Out_r of { src : int }
  | Out_i of { imm : int }
  | Call of {
      dst : int;
      callee : int;
      arg_regs : int array;
      arg_vals : int array;
    }
      (* dst = -1 when the result is discarded; callee = plan index;
         arg i reads register arg_regs.(i) when >= 0, else the
         immediate arg_vals.(i) *)
  | Unknown_array of { name : string }
  | Unknown_routine of { name : string }
  | Trap of { msg : string }
      (* ill-formed instruction (register out of range); faults lazily *)
  | Jump of { target : int; edge : edge_ops }
  | Branch_r of {
      cond : int;
      then_ : int;
      then_edge : edge_ops;
      else_ : int;
      else_edge : edge_ops;
    }
  | Branch_const of { target : int; edge : edge_ops }
      (* Branch on an immediate condition: one arm, still branch-priced *)
  | Return_r of { src : int; edge : edge_ops }
  | Return_i of { imm : int; edge : edge_ops }
  | Return_none of { edge : edge_ops }

(* A routine may carry several lowered bodies at once — the variant
   table. [Instrumented] and [Plain] are the specialize_code pair:
   identical length, offsets and costs (only terminator actions differ),
   so bursty sampling swaps a frame between them mid-run with every pc
   still valid. [Optimized] generations are full re-lowerings under a
   hot-path-first block order with instrumentation stripped: same block
   set, same per-block opcode runs (segments never span blocks), only
   placement differs, so a frame crosses onto one at any block boundary
   by mapping its target through the two offset tables. *)
type variant_kind = Instrumented | Plain | Optimized of int

type variant = {
  v_kind : variant_kind;
  v_code : op array;
  v_costs : int array;
      (* per-op charge, parallel to [v_code] (0 for Fuel); the exact
         remainder bill when fuel runs out mid-segment *)
  v_offsets : int array; (* block index -> offset of its first op *)
}

type plan = {
  routine : Ir.routine;
  view : Cfg_view.t;
  mutable variants : variant array;
      (* every lowered body of this routine, indexed as [Resolve]
         numbers streams: the [Instrumented] stream first (or the plain
         one alone, when uninstrumented), then the plain stream, then
         the generation [tier_up] appends *)
  v_plain : int; (* the structural (uninstrumented) stream *)
  r_id : int; (* this routine's plan index in its program *)
  nregs : int;
  edge_counts : Edge_profile.t option;
  chords : Spanning_tree.t option;
      (* the tree whose chords carry work_chord in every variant: only
         when the run counts edges without tracing paths *)
  paths : Path_counts.t option;
}

type program = {
  plans : plan array;
  index : (string, int) Hashtbl.t; (* routine name -> plan index *)
  main : int;
  arrays : (string, arr) Hashtbl.t;
}

let compile_action table act =
  match (act, table) with
  | Instr_rt.Set_r v, _ -> Set_reg v
  | Instr_rt.Add_r v, _ -> Add_reg v
  | (Instr_rt.Count_r | Instr_rt.Count_checked), Some t -> Bump t
  | ( (Instr_rt.Count_r_plus v | Instr_rt.Count_checked_plus v),
      Some t ) ->
      Bump_plus (t, v)
  | Instr_rt.Count_const v, Some t -> Bump_const (t, v)
  | ( ( Instr_rt.Count_r | Instr_rt.Count_checked | Instr_rt.Count_r_plus _
      | Instr_rt.Count_checked_plus _ | Instr_rt.Count_const _ ),
      None ) ->
      Bump_none

(* A block emission order is usable only if it is a genuine permutation
   of the routine's blocks that keeps the entry block at opcode offset 0
   (both engines start every frame at pc 0). Anything else — stale
   table from an older program, wrong length, duplicate entries — is
   silently ignored rather than trusted: layout is an optimization hint,
   never a correctness input. *)
let valid_order ~nblocks order =
  Array.length order = nblocks
  && nblocks > 0
  && order.(0) = 0
  &&
  let seen = Array.make nblocks false in
  Array.for_all
    (fun b ->
      b >= 0 && b < nblocks
      &&
      if seen.(b) then false
      else begin
        seen.(b) <- true;
        true
      end)
    order

let is_identity_order order =
  let n = Array.length order in
  let rec go i = i >= n || (order.(i) = i && go (i + 1)) in
  go 0

let genuine_order ~nblocks order =
  valid_order ~nblocks order && not (is_identity_order order)

let analyze ?analysis (r : Ir.routine) =
  match analysis with
  | Some f -> f r
  | None ->
      let view = Cfg_view.of_routine r in
      (view, Loop.compute (Cfg_view.graph view) ~root:(Cfg_view.entry view))

(* The path tracer's numbering of every path of the routine. Plans keep
   only its per-edge values; decoding rebuilds it. *)
let tracing_of view loops =
  Path_numbering.tracing (Cfg_view.graph view) ~entry:(Cfg_view.entry view)
    ~exit:(Cfg_view.exit view) ~ends:(Loop.breakable_edges loops)

(* Lower one routine structurally: full opcode array, costs and edge
   bookkeeping, but every edge's action list empty. Instrumentation is
   attached later by [specialize_plan], so this half is pure in the
   routine body and can be cached across runs.

   [order], when given, is the block emission order (a validated
   permutation with the entry first): the hot path's blocks land
   contiguously and cold blocks sink to the array tail. Only opcode
   *placement* changes — [block_offset] is recorded per block and the
   target-patching pass below resolves branch targets through it, so
   the executed instruction stream is identical for every order. *)
let lower_structural ?analysis ?order ~arrays ~routine_index (r : Ir.routine) =
  let view, loops = analyze ?analysis r in
  let g = Cfg_view.graph view in
  let nedges = Graph.num_edges g in
  let is_back = Array.make (max 1 nedges) false in
  List.iter (fun e -> is_back.(e) <- true) (Loop.breakable_edges loops);
  let tr = tracing_of view loops in
  let edge_ops ~ends_path e =
    let path_add = Path_numbering.step tr e in
    let path_restart = Path_numbering.restart tr e in
    {
      edge = e;
      ends_path;
      path_add;
      path_restart;
      acts = [||];
      acts_cost = 0;
      act_kinds = [||];
      work =
        (if path_add <> 0 || ends_path || path_restart >= 0 then work_tracer
         else 0);
    }
  in
  (* Emission: [pending] accumulates the current straight-line run of
     pure ops (with their individual charges); [flush] prefixes it with
     one Fuel op covering the run plus, optionally, the terminator. *)
  let ops_rev = ref [] in
  let costs_rev = ref [] in
  let n_ops = ref 0 in
  let emit op cost =
    ops_rev := op :: !ops_rev;
    costs_rev := cost :: !costs_rev;
    incr n_ops
  in
  let pending = ref [] in
  let pend op cost = pending := (op, cost) :: !pending in
  let flush ~term =
    let items = List.rev !pending in
    pending := [];
    let items = match term with None -> items | Some oc -> items @ [ oc ] in
    match items with
    | [] -> ()
    | _ ->
        let count = List.length items in
        let cost = List.fold_left (fun acc (_, c) -> acc + c) 0 items in
        emit (Fuel { count; cost }) 0;
        List.iter (fun (op, c) -> emit op c) items
  in
  let ok_reg x = x >= 0 && x < r.Ir.nregs in
  let ok_operand = function Ir.Reg x -> ok_reg x | Ir.Imm _ -> true in
  let ill_formed (ins : Ir.instr) =
    (* The checks mirror Ppp_ir.Check's register-range rules; anything
       that fails them may not be executed with unchecked accesses. *)
    match ins with
    | Ir.Mov (d, v) -> not (ok_reg d && ok_operand v)
    | Ir.Binop (d, _, a, b) -> not (ok_reg d && ok_operand a && ok_operand b)
    | Ir.Load (d, _, idx) -> not (ok_reg d && ok_operand idx)
    | Ir.Store (_, idx, v) -> not (ok_operand idx && ok_operand v)
    | Ir.Call (dst, _, args) ->
        not
          (Option.fold ~none:true ~some:ok_reg dst
          && List.for_all ok_operand args)
    | Ir.Out v -> not (ok_operand v)
  in
  let arr_of name = Hashtbl.find_opt arrays name in
  let lower_instr (ins : Ir.instr) =
    let c = Cost.instr ins in
    if ill_formed ins then
      pend
        (Trap
           {
             msg =
               Format.asprintf "routine %s: register out of range (nregs=%d)"
                 r.Ir.name r.Ir.nregs;
           })
        c
    else
      match ins with
      | Ir.Mov (d, Ir.Imm i) -> pend (Mov_i { dst = d; imm = i }) c
      | Ir.Mov (d, Ir.Reg s) -> pend (Mov_r { dst = d; src = s }) c
      | Ir.Binop (d, op, a, b) -> (
          match (a, b) with
          | Ir.Reg a, Ir.Reg b -> pend (Bin_rr { dst = d; op; a; b }) c
          | Ir.Reg a, Ir.Imm b -> pend (Bin_ri { dst = d; op; a; imm = b }) c
          | Ir.Imm a, Ir.Reg b -> pend (Bin_ir { dst = d; op; imm = a; b }) c
          | Ir.Imm a, Ir.Imm b -> pend (Bin_ii { dst = d; op; ia = a; ib = b }) c)
      | Ir.Load (d, name, idx) -> (
          match arr_of name with
          | None -> pend (Unknown_array { name }) c
          | Some arr -> (
              let data = arr.data in
              match idx with
              | Ir.Reg s -> pend (Load_r { dst = d; data; arr; idx = s }) c
              | Ir.Imm i -> pend (Load_i { dst = d; data; arr; idx = i }) c))
      | Ir.Store (name, idx, v) -> (
          match arr_of name with
          | None -> pend (Unknown_array { name }) c
          | Some arr -> (
              let data = arr.data in
              match (idx, v) with
              | Ir.Reg i, Ir.Reg s ->
                  pend (Store_rr { data; arr; idx = i; src = s }) c
              | Ir.Reg i, Ir.Imm m ->
                  pend (Store_ri { data; arr; idx = i; imm = m }) c
              | Ir.Imm i, Ir.Reg s ->
                  pend (Store_ir { data; arr; iidx = i; src = s }) c
              | Ir.Imm i, Ir.Imm m ->
                  pend (Store_ii { data; arr; iidx = i; imm = m }) c)
          )
      | Ir.Out (Ir.Reg s) -> pend (Out_r { src = s }) c
      | Ir.Out (Ir.Imm i) -> pend (Out_i { imm = i }) c
      | Ir.Call (dst, callee, args) -> (
          (* A call can push a frame, so it charges for itself: close the
             current segment first. *)
          flush ~term:None;
          match Hashtbl.find_opt routine_index callee with
          | None -> emit (Unknown_routine { name = callee }) c
          | Some idx ->
              emit
                (Call
                   {
                     dst = (match dst with Some d -> d | None -> -1);
                     callee = idx;
                     arg_regs =
                       Array.of_list
                         (List.map
                            (function Ir.Reg r -> r | Ir.Imm _ -> -1)
                            args);
                     arg_vals =
                       Array.of_list
                         (List.map
                            (function Ir.Reg _ -> 0 | Ir.Imm v -> v)
                            args);
                   })
                c)
  in
  let lower_term bi (b : Ir.block) =
    let c = Cost.terminator b.Ir.term in
    match b.Ir.term with
    | Ir.Jump l ->
        let e = Cfg_view.jump_edge view bi in
        flush
          ~term:(Some (Jump { target = l; edge = edge_ops ~ends_path:is_back.(e) e }, c))
    | Ir.Branch (cond, l1, l2) -> (
        let e1 = Cfg_view.branch_edge view bi ~taken:true in
        let e2 = Cfg_view.branch_edge view bi ~taken:false in
        let then_edge = edge_ops ~ends_path:is_back.(e1) e1 in
        let else_edge = edge_ops ~ends_path:is_back.(e2) e2 in
        match cond with
        | Ir.Reg cr when ok_reg cr ->
            flush
              ~term:
                (Some
                   ( Branch_r
                       { cond = cr; then_ = l1; then_edge; else_ = l2; else_edge },
                     c ))
        | Ir.Reg _ ->
            flush
              ~term:
                (Some
                   ( Trap
                       {
                         msg =
                           Format.asprintf
                             "routine %s: register out of range (nregs=%d)"
                             r.Ir.name r.Ir.nregs;
                       },
                     c ))
        | Ir.Imm v ->
            let target, edge =
              if v <> 0 then (l1, then_edge) else (l2, else_edge)
            in
            flush ~term:(Some (Branch_const { target; edge }, c)))
    | Ir.Return v -> (
        let e = Cfg_view.return_edge view bi in
        let edge = edge_ops ~ends_path:true e in
        match v with
        | Some (Ir.Reg s) when ok_reg s ->
            flush ~term:(Some (Return_r { src = s; edge }, c))
        | Some (Ir.Reg _) ->
            flush
              ~term:
                (Some
                   ( Trap
                       {
                         msg =
                           Format.asprintf
                             "routine %s: register out of range (nregs=%d)"
                             r.Ir.name r.Ir.nregs;
                       },
                     c ))
        | Some (Ir.Imm i) -> flush ~term:(Some (Return_i { imm = i; edge }, c))
        | None -> flush ~term:(Some (Return_none { edge }, c)))
  in
  let nblocks = Array.length r.Ir.blocks in
  let block_offset = Array.make nblocks 0 in
  let emission =
    match order with
    | Some o when valid_order ~nblocks o -> o
    | _ -> Array.init nblocks (fun i -> i)
  in
  Array.iter
    (fun bi ->
      let b = r.Ir.blocks.(bi) in
      block_offset.(bi) <- !n_ops;
      Array.iter lower_instr b.Ir.instrs;
      lower_term bi b)
    emission;
  let code = Array.of_list (List.rev !ops_rev) in
  let costs = Array.of_list (List.rev !costs_rev) in
  (* Second pass: patch block-index targets to opcode offsets. *)
  let code =
    Array.map
      (function
        | Jump { target; edge } -> Jump { target = block_offset.(target); edge }
        | Branch_const { target; edge } ->
            Branch_const { target = block_offset.(target); edge }
        | Branch_r { cond; then_; then_edge; else_; else_edge } ->
            Branch_r
              {
                cond;
                then_ = block_offset.(then_);
                then_edge;
                else_ = block_offset.(else_);
                else_edge;
              }
        | op -> op)
      code
  in
  {
    routine = r;
    view;
    variants =
      [| { v_kind = Plain; v_code = code; v_costs = costs; v_offsets = block_offset } |];
    v_plain = 0;
    r_id =
      (match Hashtbl.find_opt routine_index r.Ir.name with
      | Some i -> i
      | None -> 0);
    nregs = r.Ir.nregs;
    edge_counts = None;
    chords = None;
    paths = None;
  }

let structural_variant (p : plan) = p.variants.(p.v_plain)

(* Rebuild only the terminator opcodes of a stream, with [f] applied to
   each edge's bookkeeping. Everything else — including the Fuel
   segmentation and the per-op cost table — is shared. *)
let map_edges f code =
  Array.map
    (function
      | Jump { target; edge } -> Jump { target; edge = f edge }
      | Branch_r { cond; then_; then_edge; else_; else_edge } ->
          Branch_r
            { cond; then_; then_edge = f then_edge; else_; else_edge = f else_edge }
      | Branch_const { target; edge } -> Branch_const { target; edge = f edge }
      | Return_r { src; edge } -> Return_r { src; edge = f edge }
      | Return_i { imm; edge } -> Return_i { imm; edge = f edge }
      | Return_none { edge } -> Return_none { edge = f edge }
      | op -> op)
    code

(* Attach the run's instrumentation actions to a plain stream. Action
   costs are charged by [Vm.traverse] from [acts_cost], so the cost
   table stays the plain stream's. *)
let specialize_code ~ri ~table code =
  Obs.incr m_lower_specialize;
  map_edges
    (fun eo ->
      match ri.Instr_rt.edge_actions.(eo.edge) with
      | [] -> eo
      | src_acts ->
          {
            eo with
            acts = Array.of_list (List.map (compile_action table) src_acts);
            acts_cost = Cost.actions ~table:ri.Instr_rt.table src_acts;
            act_kinds = Array.of_list (List.map Instr_rt.action_index src_acts);
            work = eo.work lor work_actions;
          })
    code

(* The maximum spanning tree whose chords an edges-only run counts:
   weighted by the static estimate, with the virtual exit -> entry edge
   forced in. A routine the estimate cannot weigh (a cycle unreachable
   from the entry leaves no topological order) gets uniform weights. *)
let chord_tree view =
  let weight =
    match Static_est.edge_freqs view with
    | freqs -> fun e -> freqs.(e)
    | exception Invalid_argument _ -> fun _ -> 1.0
  in
  Spanning_tree.compute
    ~force:(Cfg_view.exit view, Cfg_view.entry view)
    ~weight (Cfg_view.graph view)

let mark_chords tree code =
  map_edges
    (fun eo ->
      if Spanning_tree.is_chord tree eo.edge then
        { eo with work = eo.work lor work_chord }
      else eo)
    code

(* ------------------------------------------------------------------ *)
(* Structural-plan cache.

   Validity of a cached plan is (fingerprint, nregs, environment
   signature): the fingerprint covers the blocks and CFG edges but not
   the register file, and Call opcodes embed callee *plan indices* and
   Load/Store opcodes embed backing-array refs, so any change to the
   routine name order or the array set flushes the whole cache. *)

type centry = {
  fp : int;
  c_nregs : int;
  c_order : int array option;
      (* block emission order the plan was lowered under; [None] for the
         source order. Offsets are baked into the opcodes, so a plan is
         only reusable under the exact same order. *)
  splan : plan;
  mutable c_chords : (Spanning_tree.t * op array) option;
      (* the chord tree and the chord-marked plain stream, made by the
         first edges-only run that uses the entry *)
}

type cache = {
  structs : (string, centry) Hashtbl.t;
  cached_arrays : (string, arr) Hashtbl.t;
  mutable env_sig : int;
  mutable analysis : (Ir.routine -> Ppp_ir.Cfg_view.t * Loop.t) option;
}

let create_cache () =
  {
    structs = Hashtbl.create 17;
    cached_arrays = Hashtbl.create 7;
    env_sig = min_int;
    analysis = None;
  }

let set_analysis c f = c.analysis <- Some f

let tracing ?cache (plan : plan) =
  let analysis = Option.bind cache (fun c -> c.analysis) in
  let view, loops = analyze ?analysis plan.routine in
  tracing_of view loops

let env_signature (p : Ir.program) =
  let h = ref 17 in
  let mix x = h := (!h * 1000003) lxor Hashtbl.hash x in
  mix p.Ir.main;
  List.iter (fun (r : Ir.routine) -> mix r.Ir.name) p.Ir.routines;
  List.iter
    (fun (name, size) ->
      mix name;
      mix size)
    p.Ir.arrays;
  !h

let program ?cache ~(config : Engine.config) ~instr_tables (p : Ir.program) =
  let analysis, arrays, structs =
    match cache with
    | None -> (None, Hashtbl.create 7, None)
    | Some c ->
        let s = env_signature p in
        if c.env_sig <> s then begin
          if Hashtbl.length c.structs > 0 then Obs.incr m_lower_env_flush;
          Hashtbl.reset c.structs;
          Hashtbl.reset c.cached_arrays;
          c.env_sig <- s
        end;
        (c.analysis, c.cached_arrays, Some c.structs)
  in
  (* Cached structural plans embed these exact array refs, so the slots
     are kept and their contents wiped at the start of every run. *)
  List.iter
    (fun (name, size) ->
      match Hashtbl.find_opt arrays name with
      | Some a when Array.length a.data = size -> Array.fill a.data 0 size 0
      | _ ->
          Hashtbl.replace arrays name
            { arr_name = name; data = Array.make size 0 })
    p.Ir.arrays;
  let index = Hashtbl.create 17 in
  List.iteri (fun i (r : Ir.routine) -> Hashtbl.replace index r.Ir.name i) p.Ir.routines;
  (* The requested emission order, validated and with the identity
     normalized away: a layout that changes nothing shares the plain
     plan (and its cache entry) instead of forking it. *)
  let order_of (r : Ir.routine) =
    match config.Engine.layout with
    | None -> None
    | Some tbl -> (
        match Hashtbl.find_opt tbl r.Ir.name with
        | Some o when genuine_order ~nblocks:(Array.length r.Ir.blocks) o ->
            Some o
        | _ -> None)
  in
  (* A run that counts edges without tracing paths counts chords only. *)
  let counts_chords = config.Engine.collect_edges && not config.Engine.trace_paths in
  let chords_of splan =
    let tree = chord_tree splan.view in
    (tree, mark_chords tree (structural_variant splan).v_code)
  in
  let memo_chords e =
    match e.c_chords with
    | Some c -> c
    | None ->
        let c = chords_of e.splan in
        e.c_chords <- Some c;
        c
  in
  (* The structural plan, and the chord tree and marked stream when the
     run counts chords. *)
  let structural (r : Ir.routine) =
    let order = order_of r in
    match structs with
    | None ->
        Obs.incr m_lower_miss;
        let splan = lower_structural ?analysis ?order ~arrays ~routine_index:index r in
        (splan, if counts_chords then Some (chords_of splan) else None)
    | Some tbl ->
        let fp = Fingerprint.routine r in
        let e =
          match Hashtbl.find_opt tbl r.Ir.name with
          | Some e when e.fp = fp && e.c_nregs = r.Ir.nregs && e.c_order = order
            ->
              Obs.incr m_lower_hit;
              e
          | _ ->
              Obs.incr m_lower_miss;
              let splan =
                lower_structural ?analysis ?order ~arrays ~routine_index:index r
              in
              let e =
                { fp; c_nregs = r.Ir.nregs; c_order = order; splan; c_chords = None }
              in
              Hashtbl.replace tbl r.Ir.name e;
              e
        in
        (e.splan, if counts_chords then Some (memo_chords e) else None)
  in
  let plans =
    Array.of_list
      (List.map
         (fun (r : Ir.routine) ->
           let splan, chords = structural r in
           let sv = structural_variant splan in
           let sv =
             match chords with
             | None -> sv
             | Some (_, marked) -> { sv with v_code = marked }
           in
           (* The run's variant table is always a fresh array (and the
              plan a fresh record): [tier_up] appends a variant mid-run,
              and it may not leak into the cached structural plan shared
              with the next run. *)
           let variants, v_plain =
             match config.Engine.instrumentation with
             | None -> ([| sv |], 0)
             | Some instr -> (
                 match Hashtbl.find_opt instr r.Ir.name with
                 | None -> ([| sv |], 0)
                 | Some ri ->
                     let table = Hashtbl.find_opt instr_tables r.Ir.name in
                     let icode = specialize_code ~ri ~table sv.v_code in
                     ( [|
                         {
                           v_kind = Instrumented;
                           v_code = icode;
                           v_costs = sv.v_costs;
                           v_offsets = sv.v_offsets;
                         };
                         sv;
                       |],
                       1 ))
           in
           let nedges = Graph.num_edges (Cfg_view.graph splan.view) in
           {
             splan with
             variants;
             v_plain;
             (* A run that traces paths derives its edge counts from them
                (see [Vm.run]), so it keeps no per-edge counter. *)
             edge_counts =
               (if counts_chords then Some (Edge_profile.create ~nedges) else None);
             chords = Option.map fst chords;
             paths =
               (if config.Engine.trace_paths then Some (Path_counts.create ())
                else None);
           })
         p.Ir.routines)
  in
  let main =
    match Hashtbl.find_opt index p.Ir.main with
    | Some i -> i
    | None -> Engine.error "unknown routine %s" p.Ir.main
  in
  { plans; index; main; arrays }

(* ------------------------------------------------------------------ *)
(* Mid-run tier-up: mint routine [idx]'s optimized generation by
   re-lowering it structurally under [order] (against the program's live
   array refs — only opcode placement changes, never contents), its
   chords marked as in the run's other variants, and append it to the
   variant table. Which stream frames run, and when they cross onto the
   new one, is [Resolve]'s business; no other routine's plan is
   touched. *)

let m_lower_tier = Obs.counter "session.lower.tier_up"

let tier_up ?cache (prog : program) ~idx ~order ~gen =
  let plan = prog.plans.(idx) in
  assert (Array.length plan.variants = plan.v_plain + 1);
  Obs.incr m_lower_tier;
  let analysis = Option.bind cache (fun c -> c.analysis) in
  let splan =
    lower_structural ?analysis ~order ~arrays:prog.arrays
      ~routine_index:prog.index plan.routine
  in
  let sv = structural_variant splan in
  let code =
    match plan.chords with
    | None -> sv.v_code
    | Some tree -> mark_chords tree sv.v_code
  in
  plan.variants <-
    Array.append plan.variants [| { sv with v_kind = Optimized gen; v_code = code } |]
