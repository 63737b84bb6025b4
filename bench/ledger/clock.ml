(* The ledger's one clock: CLOCK_MONOTONIC through bechamel's stub, so
   no timing can jump with wall-clock adjustments. *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)
