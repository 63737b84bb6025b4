module Ir = Ppp_ir.Ir
module B = Ppp_ir.Builder
module Check = Ppp_ir.Check
module Parse = Ppp_ir.Parse
module Pp_ir = Ppp_ir.Pp_ir

let check_bool = Alcotest.(check bool)

let simple_routine () =
  let b = B.create ~name:"f" ~nparams:1 in
  let r = B.reg b in
  B.bin b r Ir.Add (B.param b 0) (Ir.Imm 1);
  B.ret b (Some (Ir.Reg r));
  B.finish b

let test_builder_simple () =
  let r = simple_routine () in
  Alcotest.(check int) "one block" 1 (Array.length r.Ir.blocks);
  Alcotest.(check int) "nparams" 1 r.Ir.nparams;
  Alcotest.(check string) "name" "f" r.Ir.name

let test_builder_dead_block_pruned () =
  let b = B.create ~name:"g" ~nparams:0 in
  B.if_ b (Ir.Imm 1)
    ~then_:(fun () -> B.ret b (Some (Ir.Imm 1)))
    ~else_:(fun () -> B.ret b (Some (Ir.Imm 2)));
  (* Code here is dead (both arms returned); finish must prune it. *)
  B.out b (Ir.Imm 99);
  let r = B.finish b in
  let p = B.program ~main:"g" [ r ] in
  check_bool "well-formed after prune" true (Check.program p = Ok ());
  let has_dead_out =
    Array.exists
      (fun (blk : Ir.block) ->
        Array.exists (function Ir.Out _ -> true | _ -> false) blk.Ir.instrs)
      r.Ir.blocks
  in
  check_bool "dead out pruned" false has_dead_out

let test_check_rejects () =
  let bad_reg =
    {
      Ir.name = "bad";
      nparams = 0;
      nregs = 1;
      blocks =
        [| { Ir.label = "entry"; instrs = [| Ir.Mov (5, Ir.Imm 0) |]; term = Ir.Return None } |];
    }
  in
  let p = { Ir.arrays = []; routines = [ bad_reg ]; main = "bad" } in
  check_bool "register range" true (Result.is_error (Check.program p));
  let bad_branch =
    {
      Ir.name = "bad2";
      nparams = 0;
      nregs = 1;
      blocks =
        [|
          { Ir.label = "entry"; instrs = [||]; term = Ir.Branch (Ir.Reg 0, 1, 1) };
          { Ir.label = "next"; instrs = [||]; term = Ir.Return None };
        |];
    }
  in
  let p2 = { Ir.arrays = []; routines = [ bad_branch ]; main = "bad2" } in
  check_bool "same-target branch" true (Result.is_error (Check.program p2));
  let infinite =
    {
      Ir.name = "spin";
      nparams = 0;
      nregs = 1;
      blocks = [| { Ir.label = "entry"; instrs = [||]; term = Ir.Jump 0 } |];
    }
  in
  let p3 = { Ir.arrays = []; routines = [ infinite ]; main = "spin" } in
  check_bool "no return" true (Result.is_error (Check.program p3));
  let call_arity =
    {
      Ir.name = "caller";
      nparams = 0;
      nregs = 1;
      blocks =
        [|
          {
            Ir.label = "entry";
            instrs = [| Ir.Call (None, "f", []) |];
            term = Ir.Return None;
          };
        |];
    }
  in
  let p4 =
    { Ir.arrays = []; routines = [ call_arity; simple_routine () ]; main = "caller" }
  in
  check_bool "call arity" true (Result.is_error (Check.program p4))

let test_check_missing_main () =
  let p = { Ir.arrays = []; routines = [ simple_routine () ]; main = "main" } in
  check_bool "missing main" true (Result.is_error (Check.program p))

let test_parse_roundtrip_handwritten () =
  let src =
    {|
array mem 64
main main

routine main(0) regs 3 {
entry:
  r0 = 0
  r1 = call add1(r0)
  mem[r0] = r1
  r2 = mem[r0]
  out r2
  br r2, done, again
again:
  r0 = r0 + 1
  r2 = r0 < 10
  br r2, again2, done
again2:
  jump entry
done:
  ret r1
}

routine add1(1) regs 2 {
entry:
  r1 = r0 + 1
  ret r1
}
|}
  in
  let p = Parse.program_of_string src in
  let p2 = Parse.program_of_string (Pp_ir.to_string p) in
  check_bool "roundtrip equal" true (p = p2)

let test_parse_errors () =
  let expect_error src =
    match Parse.program_of_string src with
    | exception Parse.Error _ -> ()
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected a parse error"
  in
  expect_error "routine f(0) regs 1 { entry: jump nowhere }";
  expect_error "routine f(0) regs 1 { entry: r0 = }";
  expect_error "bogus token";
  expect_error "routine f(0) regs 1 { entry: ret }" (* missing main *)

let test_parse_negative_imm () =
  let p =
    Parse.program_of_string
      "routine main(0) regs 1 { entry: r0 = -5 \n out r0 \n ret r0 }"
  in
  let o = Ppp_interp.Interp.run p in
  Alcotest.(check (list int)) "negative literal" [ -5 ] o.Ppp_interp.Interp.output

let prop_roundtrip =
  QCheck.Test.make ~name:"printer/parser roundtrip on random programs" ~count:60
    QCheck.(small_int)
    (fun seed ->
      let p = Ppp_workloads.Gen.program ~seed in
      let p2 = Parse.program_of_string (Pp_ir.to_string p) in
      p = p2)

(* The printer the buffer writer replaced, on [Format] with vertical
   boxes: the reference the writer must match byte for byte. *)
module Format_printer = struct
  let pp_operand ppf = function
    | Ir.Reg r -> Format.fprintf ppf "r%d" r
    | Ir.Imm i -> Format.fprintf ppf "%d" i

  let pp_instr ppf = function
    | Ir.Mov (d, v) -> Format.fprintf ppf "r%d = %a" d pp_operand v
    | Ir.Binop (d, op, a, b) ->
        Format.fprintf ppf "r%d = %a %s %a" d pp_operand a (Ir.binop_name op)
          pp_operand b
    | Ir.Load (d, arr, idx) ->
        Format.fprintf ppf "r%d = %s[%a]" d arr pp_operand idx
    | Ir.Store (arr, idx, v) ->
        Format.fprintf ppf "%s[%a] = %a" arr pp_operand idx pp_operand v
    | Ir.Call (dst, callee, args) -> (
        let pp_args ppf args =
          Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
            pp_operand ppf args
        in
        match dst with
        | Some d -> Format.fprintf ppf "r%d = call %s(%a)" d callee pp_args args
        | None -> Format.fprintf ppf "call %s(%a)" callee pp_args args)
    | Ir.Out v -> Format.fprintf ppf "out %a" pp_operand v

  let pp_term blocks ppf = function
    | Ir.Jump l -> Format.fprintf ppf "jump %s" blocks.(l).Ir.label
    | Ir.Branch (c, l1, l2) ->
        Format.fprintf ppf "br %a, %s, %s" pp_operand c blocks.(l1).Ir.label
          blocks.(l2).Ir.label
    | Ir.Return None -> Format.fprintf ppf "ret"
    | Ir.Return (Some v) -> Format.fprintf ppf "ret %a" pp_operand v

  let pp_routine ppf (r : Ir.routine) =
    Format.fprintf ppf "@[<v>routine %s(%d) regs %d {" r.name r.nparams r.nregs;
    Array.iter
      (fun (b : Ir.block) ->
        Format.fprintf ppf "@,%s:" b.label;
        Array.iter (fun i -> Format.fprintf ppf "@,  %a" pp_instr i) b.instrs;
        Format.fprintf ppf "@,  %a" (pp_term r.blocks) b.term)
      r.blocks;
    Format.fprintf ppf "@,}@]"

  let pp_program ppf (p : Ir.program) =
    Format.fprintf ppf "@[<v>";
    List.iter
      (fun (name, size) -> Format.fprintf ppf "array %s %d@,@," name size)
      p.arrays;
    Format.fprintf ppf "main %s@," p.main;
    List.iter (fun r -> Format.fprintf ppf "@,%a@," pp_routine r) p.routines;
    Format.fprintf ppf "@]"

  let to_string p = Format.asprintf "%a@." pp_program p
end

(* Long lines too: a call past the margin, and wide registers and
   constants. *)
let test_printer_matches_format () =
  let programs =
    List.concat_map
      (fun (b : Ppp_workloads.Spec.bench) ->
        List.map (fun scale -> b.Ppp_workloads.Spec.build ~scale) [ 1; 3 ])
      Ppp_workloads.Spec.all
    @ List.init 200 (fun seed -> Ppp_workloads.Gen.program ~seed)
    @ List.map
        (fun (g : Ppp_harness.Pipeline.generation) ->
          g.Ppp_harness.Pipeline.prep.Ppp_harness.Pipeline.optimized)
        (Ppp_harness.Pipeline.reoptimize ~iterations:2
           ~flags:
             { Ppp_harness.Pipeline.default_flags with
               Ppp_harness.Pipeline.superblocks = true }
           ~name:"bzip2"
           ((Ppp_workloads.Spec.find "bzip2").Ppp_workloads.Spec.build ~scale:1))
    @ [
        Parse.program_of_string
          "array a_very_long_array_name_indeed 1000000\n\
           routine f(9) regs 12 { entry: ret r0 }\n\
           routine main(0) regs 2000 { entry: \
           r1999 = call f(1000000000, 2000000000, -3000000000, r1, r2, r3, \
           r1500, 4000000000, 5000000000)\n\
           a_very_long_array_name_indeed[r1999] = -123456789012\n\
           out r1999\n ret r1999 }";
      ]
  in
  List.iteri
    (fun i p ->
      Alcotest.(check string)
        (Printf.sprintf "program %d prints as before" i)
        (Format_printer.to_string p) (Pp_ir.to_string p))
    programs

let prop_generated_well_formed =
  QCheck.Test.make ~name:"generated programs are well-formed" ~count:60
    QCheck.(small_int)
    (fun seed -> Check.program (Ppp_workloads.Gen.program ~seed) = Ok ())

let suite =
  [
    Alcotest.test_case "builder simple" `Quick test_builder_simple;
    Alcotest.test_case "dead block pruning" `Quick test_builder_dead_block_pruned;
    Alcotest.test_case "check rejections" `Quick test_check_rejects;
    Alcotest.test_case "check missing main" `Quick test_check_missing_main;
    Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip_handwritten;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "negative immediates" `Quick test_parse_negative_imm;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_generated_well_formed;
    Alcotest.test_case "printer matches the Format printer" `Quick
      test_printer_matches_format;
  ]
