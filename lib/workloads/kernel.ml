module Ir = Ppp_ir.Ir
module B = Ppp_ir.Builder

type lcg = Ir.reg

let lcg_init b ~seed =
  let r = B.reg b in
  B.mov b r (Ir.Imm (seed land 0x3fffffff));
  r

(* Advance the generator; the result is a fresh register holding a
   non-negative 30-bit value. *)
let lcg_next b r =
  B.bin b r Ir.Mul (Ir.Reg r) (Ir.Imm 1103515245);
  B.bin b r Ir.Add (Ir.Reg r) (Ir.Imm 12345);
  B.bin b r Ir.And (Ir.Reg r) (Ir.Imm 0x3fffffff);
  Ir.Reg r

let lcg_bits b r ~lo ~width =
  let v = lcg_next b r in
  let shifted = B.bin_ b Ir.Shr v (Ir.Imm lo) in
  B.bin_ b Ir.And shifted (Ir.Imm ((1 lsl width) - 1))

let fill_random b lcg ~array_name ~size =
  let i = B.reg b in
  B.for_ b i ~from:(Ir.Imm 0) ~below:(Ir.Imm size) (fun () ->
      let v = lcg_next b lcg in
      B.store b array_name (Ir.Reg i) v)

let masked b v ~size =
  assert (size land (size - 1) = 0);
  B.bin_ b Ir.And v (Ir.Imm (size - 1))

let isqrt_newton b v =
  let x = B.reg b in
  let n = B.reg b in
  B.mov b n v;
  (* Guard against zero to keep the division safe. *)
  let is_zero = B.bin_ b Ir.Le (Ir.Reg n) (Ir.Imm 0) in
  B.when_ b is_zero (fun () -> B.mov b n (Ir.Imm 1));
  B.mov b x (Ir.Reg n);
  let k = B.reg b in
  B.for_ b k ~from:(Ir.Imm 0) ~below:(Ir.Imm 4) (fun () ->
      let q = B.bin_ b Ir.Div (Ir.Reg n) (Ir.Reg x) in
      B.bin b x Ir.Add (Ir.Reg x) q;
      B.bin b x Ir.Shr (Ir.Reg x) (Ir.Imm 1);
      let too_small = B.bin_ b Ir.Le (Ir.Reg x) (Ir.Imm 0) in
      B.when_ b too_small (fun () -> B.mov b x (Ir.Imm 1)));
  Ir.Reg x
