(** A small register-based intermediate representation.

    Routines are arrays of basic blocks over integer registers, with
    global arrays as the only memory. The representation is deliberately
    low level — one instruction per operation — so that the interpreter's
    cost model (see {!Ppp_interp.Cost}) approximates the "IR statements"
    that the paper counts (Table 1), and so that control flow is fully
    explicit for path profiling. *)

type reg = int
(** Register index within a routine; parameters occupy [0..nparams-1]. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** truncated toward zero; division by zero is a runtime error *)
  | Rem
  | And
  | Or
  | Xor
  | Shl  (** shift count is masked to [0, 62] *)
  | Shr
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne  (** comparisons yield 1 or 0 *)

type operand = Reg of reg | Imm of int

type instr =
  | Mov of reg * operand
  | Binop of reg * binop * operand * operand
  | Load of reg * string * operand  (** [reg := array.(idx)] *)
  | Store of string * operand * operand  (** [array.(idx) := value] *)
  | Call of reg option * string * operand list
  | Out of operand  (** append the value to the program's observable output *)

type terminator =
  | Jump of int  (** target block index *)
  | Branch of operand * int * int  (** nonzero -> first target, else second *)
  | Return of operand option

type block = { label : string; instrs : instr array; term : terminator }

type routine = {
  name : string;
  nparams : int;
  nregs : int;
  blocks : block array;  (** entry is block 0 *)
}

type program = {
  arrays : (string * int) list;  (** global arrays: name and length *)
  routines : routine list;
  main : string;  (** entry routine; must take no parameters *)
}

val routine : program -> string -> routine
(** @raise Not_found if no routine has that name. *)

val find_routine : program -> string -> routine option

val num_instrs : routine -> int
(** Static instruction count including one per terminator (the paper's
    "IR statements" unit used by the inlining and unrolling limits). *)

val program_size : program -> int
(** Sum of {!num_instrs} over all routines. *)

val binop_name : binop -> string
(** Surface syntax of the operator, e.g. ["+"], ["<="]. *)

val binop_of_name : string -> binop option
