(* Shared fixtures: the paper's worked example CFGs, encoded as IR
   routines, with the edge profiles the figures give, and the path of
   the committed bench baseline. *)

module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Edge_profile = Ppp_profile.Edge_profile
module Graph = Ppp_cfg.Graph

let block label instrs term = { Ir.label; instrs = Array.of_list instrs; term }

(* Figure 8: a diamond-of-diamonds.
     A -> B(50) | C(30); B -> D; C -> D; D -> E(60) | F(20); E -> G; F -> G.
   Edge ids in Cfg_view creation order:
     e0 AB, e1 AC, e2 BD, e3 CD, e4 DE, e5 DF, e6 EG, e7 FG, e8 G->exit. *)
let fig8_routine =
  {
    Ir.name = "fig8";
    nparams = 0;
    nregs = 1;
    blocks =
      [|
        block "A" [] (Ir.Branch (Ir.Reg 0, 1, 2));
        block "B" [] (Ir.Jump 3);
        block "C" [] (Ir.Jump 3);
        block "D" [] (Ir.Branch (Ir.Reg 0, 4, 5));
        block "E" [] (Ir.Jump 6);
        block "F" [] (Ir.Jump 6);
        block "G" [] (Ir.Return None);
      |];
  }

let fig8_profile () =
  let profile = Edge_profile.create ~nedges:9 in
  List.iteri
    (fun e f -> Edge_profile.add profile e f)
    [ 50; 30; 50; 30; 60; 20; 60; 20; 80 ];
  profile

(* Figure 1(a): the paper's running example.
     A -> B | C; B -> D; C -> D; D -> E | F; E -> F; F -> A (back edge) | exit.
   With the back edge broken, the DAG has 8 entry-to-exit paths.
   Edge ids: e0 AB, e1 AC, e2 BD, e3 CD, e4 DE, e5 DF, e6 EF,
             e7 FA(back), e8 F->exit(return). *)
let fig1_routine =
  {
    Ir.name = "fig1";
    nparams = 0;
    nregs = 1;
    blocks =
      [|
        block "A" [] (Ir.Branch (Ir.Reg 0, 1, 2));
        block "B" [] (Ir.Jump 3);
        block "C" [] (Ir.Jump 3);
        block "D" [] (Ir.Branch (Ir.Reg 0, 4, 5));
        block "E" [] (Ir.Jump 5);
        block "F" [] (Ir.Branch (Ir.Reg 0, 0, 6));
        block "G" [] (Ir.Return None);
      |];
  }

let view r = Cfg_view.of_routine r

(* Uniform edge profile: every edge has the given frequency. *)
let uniform_profile view f =
  let nedges = Graph.num_edges (Cfg_view.graph view) in
  let profile = Edge_profile.create ~nedges in
  for e = 0 to nedges - 1 do
    Edge_profile.add profile e f
  done;
  profile

(* The committed bench baseline. Dune copies it next to the test
   directory of the build tree, so it is found from the binary's own
   location, whichever directory the suite runs from. *)
let baseline_path =
  Filename.concat (Filename.dirname Sys.executable_name) "../BENCH_baseline.json"
