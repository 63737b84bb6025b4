module Ir = Ppp_ir.Ir

(* FNV-1a; the offset basis is the 64-bit constant truncated to OCaml's
   positive int range (any odd constant serves the mixing role). *)
let fnv_offset = 0x0bf29ce484222325
let fnv_prime = 0x100000001b3
let mask = (1 lsl 62) - 1

let fold_byte h b = (h lxor (b land 0xff)) * fnv_prime
let fold_int h i =
  let h = ref h in
  for shift = 0 to 7 do
    h := fold_byte !h ((i lsr (shift * 8)) land 0xff)
  done;
  !h

let fold_string h s = String.fold_left (fun h c -> fold_byte h (Char.code c)) h s
let finish h = h land mask

let operand_tokens = function
  | Ir.Reg r -> [ "r"; string_of_int r ]
  | Ir.Imm i -> [ "i"; string_of_int i ]

let instr_tokens = function
  | Ir.Mov (d, v) -> ("mov" :: string_of_int d :: operand_tokens v)
  | Ir.Binop (d, op, a, b) ->
      ("bin" :: Ir.binop_name op :: string_of_int d
      :: (operand_tokens a @ operand_tokens b))
  | Ir.Load (d, arr, idx) -> ("load" :: string_of_int d :: arr :: operand_tokens idx)
  | Ir.Store (arr, idx, v) ->
      ("store" :: arr :: (operand_tokens idx @ operand_tokens v))
  | Ir.Call (dst, callee, args) ->
      "call"
      :: (match dst with Some d -> string_of_int d | None -> "_")
      :: callee
      :: List.concat_map operand_tokens args
  | Ir.Out v -> "out" :: operand_tokens v

let instr_kind = function
  | Ir.Mov _ -> "M"
  | Ir.Binop _ -> "B"
  | Ir.Load _ -> "L"
  | Ir.Store _ -> "S"
  | Ir.Call _ -> "C"
  | Ir.Out _ -> "O"

(* Branch/jump targets are deliberately left out of the block hashes:
   inserting or removing an unrelated block shifts every later block
   index, and position-dependent hashes would spuriously un-match the
   whole tail of the routine. Edge structure is hashed separately in
   {!routine} and matched structurally in {!Stale_match}. *)
let term_tokens = function
  | Ir.Jump _ -> [ "jump" ]
  | Ir.Branch (c, _, _) -> ("br" :: operand_tokens c)
  | Ir.Return v -> ("ret" :: match v with Some o -> operand_tokens o | None -> [])

let term_kind = function Ir.Jump _ -> "j" | Ir.Branch _ -> "b" | Ir.Return _ -> "r"

let fold_tokens h toks =
  List.fold_left (fun h t -> fold_byte (fold_string h t) 0) h toks

let block_strict (b : Ir.block) =
  let h =
    Array.fold_left (fun h i -> fold_tokens h (instr_tokens i)) fnv_offset b.Ir.instrs
  in
  finish (fold_tokens h (term_tokens b.Ir.term))

let block_loose (b : Ir.block) =
  let h =
    Array.fold_left (fun h i -> fold_string h (instr_kind i)) fnv_offset b.Ir.instrs
  in
  finish (fold_string (fold_byte h 0) (term_kind b.Ir.term))

let routine (r : Ir.routine) =
  let h = fold_int fnv_offset (Array.length r.Ir.blocks) in
  let h = Array.fold_left (fun h b -> fold_int h (block_strict b)) h r.Ir.blocks in
  (* Edge structure: every terminator's targets, in block order (this is
     exactly the Cfg_view edge list, without building the graph). *)
  let h =
    Array.fold_left
      (fun h (b : Ir.block) ->
        match b.Ir.term with
        | Ir.Jump l -> fold_int h l
        | Ir.Branch (_, l1, l2) -> fold_int (fold_int h l1) l2
        | Ir.Return _ -> fold_int h (-1))
      h r.Ir.blocks
  in
  finish h

let to_hex h = Printf.sprintf "%016x" h

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let of_hex s =
  if String.length s = 0 || String.length s > 16 || not (String.for_all is_hex s)
  then None
  else try Some (int_of_string ("0x" ^ s)) with Failure _ -> None
