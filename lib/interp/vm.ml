(* The flat VM: executes the opcode arrays produced by [Lower] with a
   growable, recycled frame array instead of a frame list, a Ball–Larus
   trace register per frame instead of a [path_rev] list, and one
   fuel/cost update per straight-line segment instead of one per
   instruction.

   The engine must be byte-identical to the reference tree-walker in
   [Interp] — same outcomes, profiles, table state and metrics — which
   pins down two delicate spots:

   - Fuel. The reference charges each instruction *before* executing it
     and raises [Exhausted] the moment fuel hits zero, so the last
     charged instruction never runs. A [Fuel] opcode covering [count]
     ops takes the fast path only when [fuel > count]; otherwise
     [exhaust] bills the exact remainder from the per-op cost table,
     executes the fully-paid prefix, and raises — reproducing the
     reference's charged-but-not-executed final instruction.

   - Register accesses are unchecked ([Lower] validated the indices, and
     out-of-range instructions lower to [Trap]); array accesses keep
     their semantic bounds check with the reference engine's message.

   No run counts every edge. A run that traces paths keeps no edge
   counter: each edge's count is the sum over the traced paths that
   cross it, plus the in-flight prefix of every frame still live when
   fuel runs out (see [derive_in_flight]). So such a run pays only for
   the tracer's own work per edge, and most edges need none. A run that
   counts edges without tracing paths counts only the chords of each
   routine's spanning tree ([Lower.work_chord]); at the end it solves
   every tree edge by flow conservation, after giving each frame still
   live one unit of flow from its block to the exit (see
   [complete_edges]). Which edges a run traverses is one bit test per
   edge against its [work_mask]. *)

module Graph = Ppp_cfg.Graph
module Path_numbering = Ppp_cfg.Path_numbering
module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Edge_profile = Ppp_profile.Edge_profile
module Path_profile = Ppp_profile.Path_profile
module E = Engine
module L = Lower

type frame = {
  mutable plan : L.plan;
  mutable f_var : int; (* index into plan.variants this frame executes *)
  mutable fcode : L.op array; (* = plan.variants.(f_var).v_code *)
  mutable fcosts : int array; (* = plan.variants.(f_var).v_costs *)
      (* The stream this frame is executing — its entry-time variant
         until a resolution point (frame entry / back-edge OSR) swaps
         it. Instrumented<->plain swaps are offset-identical; a swap
         onto an optimized generation retargets the pc through the two
         offset tables (see [retarget]). *)
  mutable f_redecide : bool;
      (* path-ending edges are still resolution points for this frame
         (see [Resolve.must_redecide]); set at [enter] and in each
         [redecide] *)
  mutable regs : int array;
  mutable pc : int;
      (* saved resume point while a callee runs; in the frame that runs
         out of fuel, the segment or call that did *)
  mutable path_reg : int;
  mutable trace_reg : int; (* Ball–Larus number of the current path so far *)
  mutable trace_segs : int list;
      (* numbers of the current path's finished segments, latest first;
         non-empty only after a cut edge (see Path_numbering.tracing) *)
  mutable ret_to : int; (* caller register for our result; -1 = none *)
}

type state = {
  plans : L.plan array;
  mutable frames : frame array; (* recycled; [0, depth) are live *)
  mutable depth : int;
  mutable fuel : int;
  fuel0 : int; (* the budget, so consumed = fuel0 - fuel *)
  mutable base_cost : int;
  mutable instr_cost : int;
  mutable dyn_paths : int;
  mutable out_rev : int list;
  work_mask : int;
      (* traverse an edge whose [work] has one of these bits: actions
         always, plus the tracer's while tracing, or chords while
         counting edges without tracing *)
  trace_on : bool;
  obs_on : bool; (* metrics flag, latched at run start *)
  count_calls : bool; (* metrics or telemetry want the call total *)
  res : Resolve.t; (* sampler, tier controller and current streams *)
  redecide : bool array; (* = Resolve.must_redecide res *)
  tele : Telemetry.t option; (* latched snapshot ring, None = off *)
  mutable tele_left : int; (* instructions until the next sample *)
  mutable obs_calls : int;
  obs_actions : int array;
  mutable ret_value : int option;
}

(* One periodic snapshot: copy the live counters into the ring. Runs at
   fuel-segment granularity, only when a ring is attached, and reads
   state without writing any of it — execution is byte-identical with
   telemetry on and off. *)
let tele_sample st t =
  st.tele_left <- Telemetry.interval t;
  Telemetry.record t ~dyn_instrs:(st.fuel0 - st.fuel) ~base_cost:st.base_cost
    ~instr_cost:st.instr_cost ~dyn_paths:st.dyn_paths ~calls:st.obs_calls
    ~depth:st.depth

let fresh_frame plan =
  let v = plan.L.variants.(Resolve.instr) in
  {
    plan;
    f_var = Resolve.instr;
    fcode = v.L.v_code;
    fcosts = v.L.v_costs;
    f_redecide = false;
    regs = Array.make (max 1 plan.L.nregs) 0;
    (* Every frame begins at opcode offset 0: the lowering keeps the
       entry block there under every block layout (Lower.valid_order),
       so frame entry needs no pc mapping even across variants. *)
    pc = 0;
    path_reg = 0;
    trace_reg = 0;
    trace_segs = [];
    ret_to = -1;
  }

(* Push a zeroed frame for [plan], recycling the slot's arrays. The
   first [nargs] registers are about to be overwritten by the caller's
   argument copy, so only the rest needs zeroing. The frame runs the
   variant [Resolve.enter] picks, and keeps [f_redecide] from it. *)
let enter st plan ~nargs ret_to =
  if st.depth = Array.length st.frames then begin
    let bigger = Array.make (2 * st.depth) st.frames.(0) in
    Array.blit st.frames 0 bigger 0 st.depth;
    for i = st.depth to Array.length bigger - 1 do
      bigger.(i) <- fresh_frame plan
    done;
    st.frames <- bigger
  end;
  let f = st.frames.(st.depth) in
  st.depth <- st.depth + 1;
  f.plan <- plan;
  let v = Resolve.enter st.res plan.L.r_id in
  let var = plan.L.variants.(v) in
  f.f_var <- v;
  f.fcode <- var.L.v_code;
  f.fcosts <- var.L.v_costs;
  f.f_redecide <- Array.unsafe_get st.redecide plan.L.r_id;
  let n = plan.L.nregs in
  if Array.length f.regs < n then f.regs <- Array.make n 0
  else if nargs < n then Array.fill f.regs nargs (n - nargs) 0;
  f.pc <- 0;
  f.path_reg <- 0;
  f.trace_reg <- 0;
  f.trace_segs <- [];
  f.ret_to <- ret_to;
  f

let bounds_error (a : L.arr) i =
  E.error "array %s index %d out of bounds (size %d)" a.L.arr_name i
    (Array.length a.L.data)

let load d (a : L.arr) i =
  if i < 0 || i >= Array.length d then bounds_error a i;
  Array.unsafe_get d i

let store d (a : L.arr) i v =
  if i < 0 || i >= Array.length d then bounds_error a i;
  Array.unsafe_set d i v

(* An edge's bookkeeping. The dispatch loop calls this only for an edge
   with work ([has_work]): a chord or an edge with actions when the run
   counts edges without tracing paths; an edge with actions or tracer
   work when it traces paths; otherwise only an edge whose action list
   is non-empty. So without counting or tracing, an uninstrumented
   stream (plain, off-burst or tiered-up) pays nothing per edge, a
   tracing run skips every edge with Ball–Larus value 0 that neither
   ends nor cuts a path, and a counting run skips every tree edge
   without actions (a tree edge it does count is solved over at the
   end). *)
let traverse st (frame : frame) (plan : L.plan) (eo : L.edge_ops) =
  (match plan.L.edge_counts with
  | Some c -> Edge_profile.incr c eo.L.edge
  | None -> ());
  if st.trace_on then begin
    (* One add per edge with a non-zero value, one counter bump per
       path (Section 3.1). *)
    let n = frame.trace_reg + eo.L.path_add in
    if eo.L.ends_path then begin
      (match plan.L.paths with
      | Some t -> (
          match frame.trace_segs with
          | [] -> Path_counts.bump t n
          | segs ->
              Path_counts.bump_segments t (List.rev (n :: segs));
              frame.trace_segs <- [])
      | None -> ());
      st.dyn_paths <- st.dyn_paths + 1;
      frame.trace_reg <- eo.L.path_restart
    end
    else if eo.L.path_restart >= 0 then begin
      frame.trace_segs <- n :: frame.trace_segs;
      frame.trace_reg <- eo.L.path_restart
    end
    else frame.trace_reg <- n
  end;
  let acts = eo.L.acts in
  let n = Array.length acts in
  if n > 0 then begin
    st.instr_cost <- st.instr_cost + eo.L.acts_cost;
    if st.obs_on then begin
      let kinds = eo.L.act_kinds in
      for i = 0 to n - 1 do
        let k = kinds.(i) in
        st.obs_actions.(k) <- st.obs_actions.(k) + 1
      done
    end;
    for i = 0 to n - 1 do
      match Array.unsafe_get acts i with
      | L.Set_reg v -> frame.path_reg <- v
      | L.Add_reg v -> frame.path_reg <- frame.path_reg + v
      | L.Bump t -> Instr_rt.Table.bump t frame.path_reg
      | L.Bump_plus (t, v) -> Instr_rt.Table.bump t (frame.path_reg + v)
      | L.Bump_const (t, v) -> Instr_rt.Table.bump t v
      | L.Bump_none -> ()
    done
  end

let[@inline] has_work st (eo : L.edge_ops) = eo.L.work land st.work_mask <> 0

(* Execute a fully-paid pure op during the exhaustion remainder. Ops
   that can transfer control (Call, terminators) never appear here:
   calls close their segment, and a charged terminator is the op the
   reference leaves unexecuted. *)
let exec_pure st regs op =
  match op with
  | L.Mov_i { dst; imm } -> Array.unsafe_set regs dst imm
  | L.Mov_r { dst; src } -> Array.unsafe_set regs dst (Array.unsafe_get regs src)
  | L.Bin_rr { dst; op; a; b } ->
      Array.unsafe_set regs dst
        (E.exec_binop op (Array.unsafe_get regs a) (Array.unsafe_get regs b))
  | L.Bin_ri { dst; op; a; imm } ->
      Array.unsafe_set regs dst (E.exec_binop op (Array.unsafe_get regs a) imm)
  | L.Bin_ir { dst; op; imm; b } ->
      Array.unsafe_set regs dst (E.exec_binop op imm (Array.unsafe_get regs b))
  | L.Bin_ii { dst; op; ia; ib } ->
      Array.unsafe_set regs dst (E.exec_binop op ia ib)
  | L.Load_r { dst; data; arr; idx } ->
      Array.unsafe_set regs dst (load data arr (Array.unsafe_get regs idx))
  | L.Load_i { dst; data; arr; idx } ->
      Array.unsafe_set regs dst (load data arr idx)
  | L.Store_rr { data; arr; idx; src } ->
      store data arr (Array.unsafe_get regs idx) (Array.unsafe_get regs src)
  | L.Store_ri { data; arr; idx; imm } ->
      store data arr (Array.unsafe_get regs idx) imm
  | L.Store_ir { data; arr; iidx; src } ->
      store data arr iidx (Array.unsafe_get regs src)
  | L.Store_ii { data; arr; iidx; imm } -> store data arr iidx imm
  | L.Out_r { src } -> st.out_rev <- Array.unsafe_get regs src :: st.out_rev
  | L.Out_i { imm } -> st.out_rev <- imm :: st.out_rev
  | L.Unknown_array { name } -> E.error "unknown array %s" name
  | L.Trap { msg } -> raise (E.Runtime_error msg)
  | L.Fuel _ | L.Call _ | L.Unknown_routine _ | L.Jump _ | L.Branch_r _
  | L.Branch_const _ | L.Return_r _ | L.Return_i _ | L.Return_none _ ->
      assert false

(* Fuel ran out inside this segment: with [f] fuel left, the reference
   charges [max 1 f] more instructions, executes all but the last, and
   raises. [pc] is the segment's Fuel opcode, an offset in the frame's
   own variant (whose cost table is parallel to its code). *)
let exhaust st (frame : frame) regs pc =
  let k = if st.fuel < 1 then 1 else st.fuel in
  let costs = frame.fcosts in
  let cost = ref 0 in
  for i = pc + 1 to pc + k do
    cost := !cost + Array.unsafe_get costs i
  done;
  st.base_cost <- st.base_cost + !cost;
  st.fuel <- st.fuel - k;
  let code = frame.fcode in
  for i = pc + 1 to pc + k - 1 do
    exec_pure st regs code.(i)
  done;
  frame.pc <- pc;
  raise E.Exhausted

(* Map [target] — a block-start offset in [from_]'s code — to the same
   block's start in [to_]. The instrumented/plain pair shares one
   offsets table, so the common swap is free; crossing onto an
   optimized generation does one linear scan over the routine's blocks
   (block starts are strictly increasing in emission order, hence
   unique), and only on an actual swap. *)
let retarget (from_ : L.variant) (to_ : L.variant) target =
  let offs = from_.L.v_offsets in
  if offs == to_.L.v_offsets then target
  else begin
    let n = Array.length offs in
    let rec find b =
      if b >= n then assert false
      else if offs.(b) = target then b
      else find (b + 1)
    in
    to_.L.v_offsets.(find 0)
  end

(* A frame crossed a path-ending edge [edge_id] towards [target], with
   [f_redecide] set: move it onto the variant [Resolve.back_edge]
   picks. The edge's old path is fully recorded by [traverse] already,
   so no partial path can be lost. Returns the pc to re-enter
   [run_frames] with (so the dispatch loop rebinds the code array), or
   -1 when the frame's stream is unchanged. A switch onto the
   instrumented stream re-arms the path register; elsewhere a stale
   one is harmless, as no other stream bumps a counter. *)
let redecide st (frame : frame) (plan : L.plan) edge_id target =
  let v = Resolve.back_edge st.res plan.L.r_id ~from:frame.f_var in
  frame.f_redecide <- Array.unsafe_get st.redecide plan.L.r_id;
  if v = frame.f_var then -1
  else begin
    let from_ = plan.L.variants.(frame.f_var) in
    let to_ = plan.L.variants.(v) in
    frame.f_var <- v;
    frame.fcode <- to_.L.v_code;
    frame.fcosts <- to_.L.v_costs;
    if v = Resolve.instr then
      frame.path_reg <- Resolve.rearm st.res plan.L.r_id edge_id;
    retarget from_ to_ target
  end

let do_return st (frame : frame) value =
  st.depth <- st.depth - 1;
  if st.depth = 0 then st.ret_value <- value
  else if frame.ret_to >= 0 then
    st.frames.(st.depth - 1).regs.(frame.ret_to) <-
      (match value with Some x -> x | None -> 0)

(* Execute [frame] from [start_pc] to program completion: straight-line
   control stays inside the tail-recursive [go], and calls and returns
   switch frames with a tail call back into [run_frames], so the whole
   program runs as one loop with no per-transition driver overhead. *)
let rec run_frames st (frame : frame) start_pc =
  let plan = frame.plan in
  let code = frame.fcode in
  let costs = frame.fcosts in
  let regs = frame.regs in
  let rec go pc =
    match Array.unsafe_get code pc with
    | L.Fuel { count; cost } ->
        if st.fuel > count then begin
          st.fuel <- st.fuel - count;
          st.base_cost <- st.base_cost + cost;
          (* One load and one branch per segment when telemetry is off,
             matching the gated-metrics cost discipline. *)
          (match st.tele with
          | None -> ()
          | Some t ->
              st.tele_left <- st.tele_left - count;
              if st.tele_left <= 0 then tele_sample st t);
          go (pc + 1)
        end
        else exhaust st frame regs pc
    | L.Mov_i { dst; imm } ->
        Array.unsafe_set regs dst imm;
        go (pc + 1)
    | L.Mov_r { dst; src } ->
        Array.unsafe_set regs dst (Array.unsafe_get regs src);
        go (pc + 1)
    (* The two common binop shapes evaluate inline — same semantics as
       [Engine.exec_binop], without the cross-module call per op. *)
    | L.Bin_rr { dst; op; a; b } ->
        let a = Array.unsafe_get regs a and b = Array.unsafe_get regs b in
        let v =
          match op with
          | Ir.Add -> a + b
          | Ir.Sub -> a - b
          | Ir.Mul -> a * b
          | Ir.Lt -> if a < b then 1 else 0
          | Ir.Le -> if a <= b then 1 else 0
          | Ir.Gt -> if a > b then 1 else 0
          | Ir.Ge -> if a >= b then 1 else 0
          | Ir.Eq -> if a = b then 1 else 0
          | Ir.Ne -> if a <> b then 1 else 0
          | Ir.Div -> if b = 0 then E.error "division by zero" else a / b
          | Ir.Rem -> if b = 0 then E.error "remainder by zero" else a mod b
          | Ir.And -> a land b
          | Ir.Or -> a lor b
          | Ir.Xor -> a lxor b
          | Ir.Shl ->
              let c = b land 63 in
              if c > 62 then 0 else a lsl c
          | Ir.Shr ->
              let c = b land 63 in
              a asr (if c > 62 then 62 else c)
        in
        Array.unsafe_set regs dst v;
        go (pc + 1)
    | L.Bin_ri { dst; op; a; imm } ->
        let a = Array.unsafe_get regs a in
        let v =
          match op with
          | Ir.Add -> a + imm
          | Ir.Sub -> a - imm
          | Ir.Mul -> a * imm
          | Ir.Lt -> if a < imm then 1 else 0
          | Ir.Le -> if a <= imm then 1 else 0
          | Ir.Gt -> if a > imm then 1 else 0
          | Ir.Ge -> if a >= imm then 1 else 0
          | Ir.Eq -> if a = imm then 1 else 0
          | Ir.Ne -> if a <> imm then 1 else 0
          | Ir.Div -> if imm = 0 then E.error "division by zero" else a / imm
          | Ir.Rem -> if imm = 0 then E.error "remainder by zero" else a mod imm
          | Ir.And -> a land imm
          | Ir.Or -> a lor imm
          | Ir.Xor -> a lxor imm
          | Ir.Shl ->
              let c = imm land 63 in
              if c > 62 then 0 else a lsl c
          | Ir.Shr ->
              let c = imm land 63 in
              a asr (if c > 62 then 62 else c)
        in
        Array.unsafe_set regs dst v;
        go (pc + 1)
    | L.Bin_ir { dst; op; imm; b } ->
        Array.unsafe_set regs dst
          (E.exec_binop op imm (Array.unsafe_get regs b));
        go (pc + 1)
    | L.Bin_ii { dst; op; ia; ib } ->
        Array.unsafe_set regs dst (E.exec_binop op ia ib);
        go (pc + 1)
    | L.Load_r { dst; data; arr; idx } ->
        let i = Array.unsafe_get regs idx in
        if i < 0 || i >= Array.length data then bounds_error arr i;
        Array.unsafe_set regs dst (Array.unsafe_get data i);
        go (pc + 1)
    | L.Load_i { dst; data; arr; idx } ->
        Array.unsafe_set regs dst (load data arr idx);
        go (pc + 1)
    | L.Store_rr { data; arr; idx; src } ->
        let i = Array.unsafe_get regs idx in
        if i < 0 || i >= Array.length data then bounds_error arr i;
        Array.unsafe_set data i (Array.unsafe_get regs src);
        go (pc + 1)
    | L.Store_ri { data; arr; idx; imm } ->
        let i = Array.unsafe_get regs idx in
        if i < 0 || i >= Array.length data then bounds_error arr i;
        Array.unsafe_set data i imm;
        go (pc + 1)
    | L.Store_ir { data; arr; iidx; src } ->
        store data arr iidx (Array.unsafe_get regs src);
        go (pc + 1)
    | L.Store_ii { data; arr; iidx; imm } ->
        store data arr iidx imm;
        go (pc + 1)
    | L.Out_r { src } ->
        st.out_rev <- Array.unsafe_get regs src :: st.out_rev;
        go (pc + 1)
    | L.Out_i { imm } ->
        st.out_rev <- imm :: st.out_rev;
        go (pc + 1)
    | L.Call { dst; callee; arg_regs; arg_vals } ->
        (* Self-charging: the charge can raise before the frame push,
           exactly like the reference's per-instruction charge. *)
        st.base_cost <- st.base_cost + Array.unsafe_get costs pc;
        st.fuel <- st.fuel - 1;
        if st.fuel <= 0 then begin
          frame.pc <- pc;
          raise E.Exhausted
        end;
        st.base_cost <- st.base_cost + Cost.call_overhead;
        if st.count_calls then st.obs_calls <- st.obs_calls + 1;
        frame.pc <- pc + 1;
        let nargs = Array.length arg_regs in
        let cf = enter st (Array.unsafe_get st.plans callee) ~nargs dst in
        let cregs = cf.regs in
        for i = 0 to nargs - 1 do
          let r = Array.unsafe_get arg_regs i in
          Array.unsafe_set cregs i
            (if r >= 0 then Array.unsafe_get regs r
             else Array.unsafe_get arg_vals i)
        done;
        run_frames st cf 0
    | L.Unknown_routine { name } ->
        st.base_cost <- st.base_cost + Array.unsafe_get costs pc;
        st.fuel <- st.fuel - 1;
        if st.fuel <= 0 then begin
          frame.pc <- pc;
          raise E.Exhausted
        end;
        st.base_cost <- st.base_cost + Cost.call_overhead;
        if st.count_calls then st.obs_calls <- st.obs_calls + 1;
        E.error "unknown routine %s" name
    | L.Unknown_array { name } -> E.error "unknown array %s" name
    | L.Trap { msg } -> raise (E.Runtime_error msg)
    | L.Jump { target; edge } ->
        if has_work st edge then traverse st frame plan edge;
        if frame.f_redecide && edge.L.ends_path then begin
          let t = redecide st frame plan edge.L.edge target in
          if t >= 0 then run_frames st frame t else go target
        end
        else go target
    | L.Branch_r { cond; then_; then_edge; else_; else_edge } ->
        if Array.unsafe_get regs cond <> 0 then begin
          if has_work st then_edge then traverse st frame plan then_edge;
          if frame.f_redecide && then_edge.L.ends_path then begin
            let t = redecide st frame plan then_edge.L.edge then_ in
            if t >= 0 then run_frames st frame t else go then_
          end
          else go then_
        end
        else begin
          if has_work st else_edge then traverse st frame plan else_edge;
          if frame.f_redecide && else_edge.L.ends_path then begin
            let t = redecide st frame plan else_edge.L.edge else_ in
            if t >= 0 then run_frames st frame t else go else_
          end
          else go else_
        end
    | L.Branch_const { target; edge } ->
        if has_work st edge then traverse st frame plan edge;
        if frame.f_redecide && edge.L.ends_path then begin
          let t = redecide st frame plan edge.L.edge target in
          if t >= 0 then run_frames st frame t else go target
        end
        else go target
    | L.Return_r { src; edge } ->
        if has_work st edge then traverse st frame plan edge;
        ret (Some (Array.unsafe_get regs src))
    | L.Return_i { imm; edge } ->
        if has_work st edge then traverse st frame plan edge;
        ret (Some imm)
    | L.Return_none { edge } ->
        if has_work st edge then traverse st frame plan edge;
        ret None
  and ret value =
    do_return st frame value;
    if st.depth > 0 then begin
      let f = st.frames.(st.depth - 1) in
      run_frames st f f.pc
    end
  in
  go start_pc

(* The block whose opcodes contain [pc] in [v]: blocks are emitted
   contiguously, so it is the one starting last at or before [pc]. *)
let block_at (v : L.variant) pc =
  let best = ref 0 in
  Array.iteri
    (fun b off -> if off <= pc && off > v.L.v_offsets.(!best) then best := b)
    v.L.v_offsets;
  !best

(* Fuel ran out with frames [0, depth) live, each part-way through a
   path whose edges were crossed but never counted with a path: its
   finished segments (after cuts) and the segment in flight, which its
   trace register recovers up to the block at its saved pc. *)
let derive_in_flight ?cache st (derived : Edge_profile.t array) =
  let tracings = Array.make (Array.length st.plans) None in
  for i = 0 to st.depth - 1 do
    let f = st.frames.(i) in
    let plan = f.plan in
    let tr =
      match tracings.(plan.L.r_id) with
      | Some tr -> tr
      | None ->
          let tr = L.tracing ?cache plan in
          tracings.(plan.L.r_id) <- Some tr;
          tr
    in
    let c = derived.(plan.L.r_id) in
    let at = block_at plan.L.variants.(f.f_var) f.pc in
    List.iter
      (fun e -> Edge_profile.incr c e)
      (Path_numbering.decode_segments tr (List.rev f.trace_segs)
      @ Path_numbering.decode_prefix tr f.trace_reg ~at)
  done

(* A run that counted only chords: fuel ran out with frames [0, depth)
   live, each one unit of flow stopped at the block of its saved pc (the
   same block [derive_in_flight] decodes a prefix up to). With those
   sinks, conservation fixes every tree edge's count. *)
let complete_edges st =
  let sinks = Array.make (Array.length st.plans) [] in
  for i = 0 to st.depth - 1 do
    let f = st.frames.(i) in
    let id = f.plan.L.r_id in
    sinks.(id) <- block_at f.plan.L.variants.(f.f_var) f.pc :: sinks.(id)
  done;
  Array.iter
    (fun (plan : L.plan) ->
      match (plan.L.edge_counts, plan.L.chords) with
      | Some c, Some tree ->
          Edge_profile.complete c (Cfg_view.graph plan.L.view) tree
            ~sinks:sinks.(plan.L.r_id)
      | _ -> ())
    st.plans

let run ?cache ~(config : E.config) (p : Ir.program) =
  E.validate_call_arities p;
  let instr_tables =
    match config.E.instrumentation with
    | Some instr -> Instr_rt.init_state ~policy:config.E.overflow_policy instr
    | None -> Hashtbl.create 1
  in
  let prog = L.program ?cache ~config ~instr_tables p in
  let main_plan = prog.L.plans.(prog.L.main) in
  let res =
    Resolve.start config ~tables:instr_tables p
      ~install:(fun ~idx ~order ~gen -> L.tier_up ?cache prog ~idx ~order ~gen)
  in
  let st =
    {
      plans = prog.L.plans;
      frames = Array.init 16 (fun _ -> fresh_frame main_plan);
      depth = 0;
      fuel = config.E.fuel;
      fuel0 = config.E.fuel;
      base_cost = 0;
      instr_cost = 0;
      dyn_paths = 0;
      out_rev = [];
      work_mask =
        (if config.E.trace_paths then L.work_tracer lor L.work_actions
         else if config.E.collect_edges then L.work_chord lor L.work_actions
         else L.work_actions);
      trace_on = config.E.trace_paths;
      obs_on = E.Obs.enabled ();
      count_calls = E.Obs.enabled () || Option.is_some config.E.telemetry;
      res;
      redecide = Resolve.must_redecide res;
      tele = config.E.telemetry;
      tele_left =
        (match config.E.telemetry with
        | Some t -> Telemetry.interval t
        | None -> max_int);
      obs_calls = 0;
      obs_actions = Array.make Instr_rt.num_action_kinds 0;
      ret_value = None;
    }
  in
  let main_frame = enter st main_plan ~nargs:0 (-1) in
  let termination =
    try
      run_frames st main_frame 0;
      E.Finished
    with E.Exhausted -> E.Out_of_fuel { stack_depth = st.depth }
  in
  (* Traced paths are decoded to edges only here, once per distinct
     path, by rebuilding each routine's numbering. A run that also counts
     edges adds each path's count to the edges it crosses. *)
  let derived =
    if config.E.collect_edges && config.E.trace_paths then
      Some
        (Array.map
           (fun (plan : L.plan) ->
             Edge_profile.create
               ~nedges:(Graph.num_edges (Cfg_view.graph plan.L.view)))
           prog.L.plans)
    else None
  in
  let path_profile =
    if config.E.trace_paths then begin
      let pp = Path_profile.create_program p in
      Hashtbl.iter
        (fun name idx ->
          let plan = prog.L.plans.(idx) in
          match plan.L.paths with
          | Some t when Path_counts.num_distinct t > 0 ->
              let tr = L.tracing ?cache plan in
              let dst = Path_profile.routine pp name in
              let edges = Option.map (fun d -> d.(idx)) derived in
              Path_counts.iter t (fun segs n ->
                  let path = Path_numbering.decode_segments tr segs in
                  Path_profile.add dst path n;
                  match edges with
                  | Some c -> List.iter (fun e -> Edge_profile.add c e n) path
                  | None -> ())
          | _ -> ())
        prog.L.index;
      Some pp
    end
    else None
  in
  Option.iter (derive_in_flight ?cache st) derived;
  if config.E.collect_edges && not config.E.trace_paths then complete_edges st;
  let edge_profile =
    if config.E.collect_edges then begin
      let ep = Edge_profile.create_program p in
      Hashtbl.iter
        (fun name idx ->
          let plan = prog.L.plans.(idx) in
          let counts =
            match derived with
            | Some d -> Some d.(idx)
            | None -> plan.L.edge_counts
          in
          match counts with
          | Some c ->
              Graph.iter_edges (Cfg_view.graph plan.L.view) (fun e ->
                  Edge_profile.add (Edge_profile.routine ep name) e
                    (Edge_profile.freq c e))
          | None -> ())
        prog.L.index;
      Some ep
    end
    else None
  in
  (* Fuel and dynamic instructions move in lockstep (every charge takes
     one of each), so the count is derived instead of updated per
     segment in the hot loop. *)
  let dyn_instrs = config.E.fuel - st.fuel in
  if st.obs_on then begin
    E.flush_metrics ~fuel:config.E.fuel ~termination ~fuel_left:st.fuel
      ~base_cost:st.base_cost ~instr_cost:st.instr_cost ~dyn_instrs
      ~dyn_paths:st.dyn_paths ~calls:st.obs_calls ~actions:st.obs_actions;
    Resolve.flush_metrics res
  end;
  {
    E.return_value = st.ret_value;
    output = List.rev st.out_rev;
    base_cost = st.base_cost;
    instr_cost = st.instr_cost;
    dyn_instrs;
    dyn_paths = st.dyn_paths;
    termination;
    edge_profile;
    path_profile;
    instr_state =
      (if Option.is_some config.E.instrumentation then Some instr_tables
       else None);
    tier_decisions = Resolve.decisions res;
  }
