(* The [.pir] text is written straight into one buffer: every line is
   flush left or indented by two spaces, so it needs no pretty-printing
   engine. *)

let add_operand b = function
  | Ir.Reg r ->
      Buffer.add_char b 'r';
      Buffer.add_string b (string_of_int r)
  | Ir.Imm i -> Buffer.add_string b (string_of_int i)

let add_dst b d =
  Buffer.add_char b 'r';
  Buffer.add_string b (string_of_int d);
  Buffer.add_string b " = "

let add_instr b = function
  | Ir.Mov (d, v) ->
      add_dst b d;
      add_operand b v
  | Ir.Binop (d, op, x, y) ->
      add_dst b d;
      add_operand b x;
      Buffer.add_char b ' ';
      Buffer.add_string b (Ir.binop_name op);
      Buffer.add_char b ' ';
      add_operand b y
  | Ir.Load (d, arr, idx) ->
      add_dst b d;
      Buffer.add_string b arr;
      Buffer.add_char b '[';
      add_operand b idx;
      Buffer.add_char b ']'
  | Ir.Store (arr, idx, v) ->
      Buffer.add_string b arr;
      Buffer.add_char b '[';
      add_operand b idx;
      Buffer.add_string b "] = ";
      add_operand b v
  | Ir.Call (dst, callee, args) ->
      Option.iter (add_dst b) dst;
      Buffer.add_string b "call ";
      Buffer.add_string b callee;
      Buffer.add_char b '(';
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_string b ", ";
          add_operand b a)
        args;
      Buffer.add_char b ')'
  | Ir.Out v ->
      Buffer.add_string b "out ";
      add_operand b v

let add_term b (blocks : Ir.block array) = function
  | Ir.Jump l ->
      Buffer.add_string b "jump ";
      Buffer.add_string b blocks.(l).Ir.label
  | Ir.Branch (c, l1, l2) ->
      Buffer.add_string b "br ";
      add_operand b c;
      Buffer.add_string b ", ";
      Buffer.add_string b blocks.(l1).Ir.label;
      Buffer.add_string b ", ";
      Buffer.add_string b blocks.(l2).Ir.label
  | Ir.Return None -> Buffer.add_string b "ret"
  | Ir.Return (Some v) ->
      Buffer.add_string b "ret ";
      add_operand b v

let add_routine b (r : Ir.routine) =
  Printf.bprintf b "routine %s(%d) regs %d {" r.name r.nparams r.nregs;
  Array.iter
    (fun (blk : Ir.block) ->
      Buffer.add_char b '\n';
      Buffer.add_string b blk.label;
      Buffer.add_char b ':';
      Array.iter
        (fun i ->
          Buffer.add_string b "\n  ";
          add_instr b i)
        blk.instrs;
      Buffer.add_string b "\n  ";
      add_term b r.blocks blk.term)
    r.blocks;
  Buffer.add_string b "\n}"

let to_string (p : Ir.program) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, size) -> Printf.bprintf b "array %s %d\n\n" name size)
    p.arrays;
  Printf.bprintf b "main %s\n" p.main;
  List.iter
    (fun r ->
      Buffer.add_char b '\n';
      add_routine b r;
      Buffer.add_char b '\n')
    p.routines;
  Buffer.add_char b '\n';
  Buffer.contents b
