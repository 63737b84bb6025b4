(* Quickstart: the paper's Figure 1 example, end to end.

   Builds the routine of Figure 1(a), walks through DAG conversion, path
   numbering, event counting and instrumentation placement, then runs the
   instrumented program and decodes the measured path profile.

   Run with: dune exec examples/quickstart.exe *)

module Ir = Ppp_ir.Ir
module B = Ppp_ir.Builder
module Cfg_view = Ppp_ir.Cfg_view
module Graph = Ppp_cfg.Graph
module Interp = Ppp_interp.Interp
module Edge_profile = Ppp_profile.Edge_profile
module Routine_ctx = Ppp_flow.Routine_ctx
module Numbering = Ppp_core.Numbering
module Instrument = Ppp_core.Instrument
module Config = Ppp_core.Config
module Instr_rt = Ppp_interp.Instr_rt

(* Figure 1(a): A branches to B/C, both reach D, D branches to E/F, E
   falls into F, and F either loops back to A or exits. We drive the
   branches from a little counter so different paths actually execute. *)
let program =
  let b = B.create ~name:"main" ~nparams:0 in
  let i = B.reg b in
  let acc = B.reg b in
  B.mov b acc (Ir.Imm 0);
  B.for_ b i ~from:(Ir.Imm 0) ~below:(Ir.Imm 100) (fun () ->
      (* block A/B/C: take B on even iterations *)
      let even = B.bin_ b Ir.And (Ir.Reg i) (Ir.Imm 1) in
      let is_even = B.bin_ b Ir.Eq even (Ir.Imm 0) in
      B.if_ b is_even
        ~then_:(fun () -> B.bin b acc Ir.Add (Ir.Reg acc) (Ir.Imm 1))
        ~else_:(fun () -> B.bin b acc Ir.Add (Ir.Reg acc) (Ir.Imm 2));
      (* block D/E/F: take E when acc is small *)
      let small = B.bin_ b Ir.Lt (Ir.Reg acc) (Ir.Imm 50) in
      B.when_ b small (fun () -> B.bin b acc Ir.Add (Ir.Reg acc) (Ir.Imm 3)));
  B.out b (Ir.Reg acc);
  B.ret b (Some (Ir.Reg acc));
  B.program ~main:"main" [ B.finish b ]

let () =
  Format.printf "=== 1. The routine ===@.%s@." (Ppp_ir.Pp_ir.to_string program);

  (* Run once to get the edge profile ("self" advice, Section 7.2). *)
  let base = Interp.run program in
  let ep = Option.get base.Interp.edge_profile in
  Format.printf "=== 2. Base run ===@.output = %s, base cost = %d cycles@.@."
    (String.concat "," (List.map string_of_int base.Interp.output))
    base.Interp.base_cost;

  (* Look at the numbering the instrumenter will use. *)
  let r = Ir.routine program "main" in
  let view = Cfg_view.of_routine r in
  let ctx = Routine_ctx.make view (Edge_profile.routine ep "main") in
  let hot = Ppp_core.Cold.all_hot ctx in
  let nb = Numbering.compute ctx ~hot ~order:Numbering.Ball_larus in
  Format.printf "=== 3. Path numbering (Figure 2) ===@.";
  Format.printf "the DAG has N = %d acyclic paths; every path sums its edge values@."
    (Numbering.num_paths nb);
  for k = 0 to Numbering.num_paths nb - 1 do
    let path = Ppp_flow.Routine_ctx.cfg_path_of_dag_path ctx (Numbering.decode nb k) in
    Format.printf "  path %d = %a@." k (Ppp_profile.Path.pp view) path
  done;
  Format.printf "@.";

  (* Instrument with PP and with PPP; compare the placed actions. *)
  let show config =
    let inst = Instrument.instrument program ep config in
    let o =
      Interp.run
        ~config:
          { Interp.default_config with instrumentation = Some inst.Instrument.rt }
        program
    in
    Format.printf "--- %s: instrumentation cost %d cycles (%.1f%% overhead)@."
      config.Config.name o.Interp.instr_cost (100.0 *. Interp.overhead o);
    (* PPP may decide main is already covered well enough by the edge
       profile (low-coverage skip) and place nothing at all. *)
    match Hashtbl.find_opt (Option.get o.Interp.instr_state) "main" with
    | None ->
        Format.printf
          "    (main left uninstrumented: edge-profile coverage was enough)@."
    | Some table ->
        let plan = Hashtbl.find inst.Instrument.plans "main" in
        Instr_rt.Table.iter_nonzero table (fun k count ->
            match Instrument.decoded_path plan k with
            | Some path ->
                Format.printf "    count[%d] = %3d   %a@." k count
                  (Ppp_profile.Path.pp view) path
            | None ->
                Format.printf "    count[%d] = %3d   (cold region)@." k count)
  in
  Format.printf "=== 4. Instrument, run, decode ===@.";
  show Config.pp;
  show Config.ppp;
  Format.printf "@.=== 5. Ground truth for comparison ===@.";
  let actual = Option.get base.Interp.path_profile in
  Ppp_profile.Path_profile.fold
    (Ppp_profile.Path_profile.routine actual "main")
    ~init:[] ~f:(fun acc path n -> (path, n) :: acc)
  |> List.sort compare
  |> List.iter (fun (path, n) ->
         Format.printf "    %3d x %a@." n (Ppp_profile.Path.pp view) path)
