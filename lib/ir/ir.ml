type reg = int

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne

type operand = Reg of reg | Imm of int

type instr =
  | Mov of reg * operand
  | Binop of reg * binop * operand * operand
  | Load of reg * string * operand
  | Store of string * operand * operand
  | Call of reg option * string * operand list
  | Out of operand

type terminator =
  | Jump of int
  | Branch of operand * int * int
  | Return of operand option

type block = { label : string; instrs : instr array; term : terminator }

type routine = {
  name : string;
  nparams : int;
  nregs : int;
  blocks : block array;
}

type program = {
  arrays : (string * int) list;
  routines : routine list;
  main : string;
}

let find_routine p name = List.find_opt (fun r -> r.name = name) p.routines

let routine p name =
  match find_routine p name with Some r -> r | None -> raise Not_found

let num_instrs r =
  Array.fold_left (fun acc b -> acc + Array.length b.instrs + 1) 0 r.blocks

let program_size p =
  List.fold_left (fun acc r -> acc + num_instrs r) 0 p.routines

let binop_table =
  [
    (Add, "+");
    (Sub, "-");
    (Mul, "*");
    (Div, "/");
    (Rem, "%");
    (And, "&");
    (Or, "|");
    (Xor, "^");
    (Shl, "<<");
    (Shr, ">>");
    (Lt, "<");
    (Le, "<=");
    (Gt, ">");
    (Ge, ">=");
    (Eq, "==");
    (Ne, "!=");
  ]

let binop_name op = List.assoc op binop_table

let binop_of_name s =
  List.find_map (fun (op, n) -> if n = s then Some op else None) binop_table
