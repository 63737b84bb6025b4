(* A low-overhead periodic snapshot ring over the VM's live counters.

   The VM takes one sample roughly every [interval] dynamic
   instructions (measured at fuel-segment granularity, so a sample
   lands at the first segment boundary past the interval). Samples go
   into a fixed-capacity ring: a long run keeps the newest [capacity]
   snapshots and counts the rest as dropped, so memory stays bounded
   however long the program runs. Reading a sample copies seven ints —
   it never touches the heap — which is what keeps the sampling
   overhead within the 2% budget even at small intervals. *)

module Obs = Ppp_obs.Metrics
module Jsonx = Ppp_obs.Jsonx
module Trace = Ppp_obs.Trace

type sample = {
  seq : int;  (** 0-based sample index over the whole run *)
  dyn_instrs : int;
  base_cost : int;
  instr_cost : int;
  dyn_paths : int;
  calls : int;
  depth : int;  (** live activations at sample time *)
}

type t = {
  interval : int;
  capacity : int;
  ring : sample array;
  mutable taken : int;  (** total samples ever recorded *)
}

let m_samples = Obs.counter "vm.telemetry.samples"
let m_dropped = Obs.counter "vm.telemetry.dropped"

let zero_sample =
  {
    seq = 0;
    dyn_instrs = 0;
    base_cost = 0;
    instr_cost = 0;
    dyn_paths = 0;
    calls = 0;
    depth = 0;
  }

let create ?(capacity = 256) ~interval () =
  if interval < 1 then invalid_arg "Telemetry.create: interval must be >= 1";
  if capacity < 1 then invalid_arg "Telemetry.create: capacity must be >= 1";
  { interval; capacity; ring = Array.make capacity zero_sample; taken = 0 }

let interval t = t.interval
let taken t = t.taken
let dropped t = max 0 (t.taken - t.capacity)

let record t ~dyn_instrs ~base_cost ~instr_cost ~dyn_paths ~calls ~depth =
  let s =
    {
      seq = t.taken;
      dyn_instrs;
      base_cost;
      instr_cost;
      dyn_paths;
      calls;
      depth;
    }
  in
  t.ring.(t.taken mod t.capacity) <- s;
  t.taken <- t.taken + 1;
  Obs.incr m_samples;
  if t.taken > t.capacity then Obs.incr m_dropped

let reset t = t.taken <- 0

let samples t =
  let n = min t.taken t.capacity in
  let first = t.taken - n in
  List.init n (fun i -> t.ring.((first + i) mod t.capacity))

let sample_json s =
  Jsonx.Obj
    [
      ("seq", Jsonx.Int s.seq);
      ("dyn_instrs", Jsonx.Int s.dyn_instrs);
      ("base_cost", Jsonx.Int s.base_cost);
      ("instr_cost", Jsonx.Int s.instr_cost);
      ("dyn_paths", Jsonx.Int s.dyn_paths);
      ("calls", Jsonx.Int s.calls);
      ("depth", Jsonx.Int s.depth);
    ]

let to_json t =
  Jsonx.Obj
    [
      ("interval", Jsonx.Int t.interval);
      ("capacity", Jsonx.Int t.capacity);
      ("taken", Jsonx.Int t.taken);
      ("dropped", Jsonx.Int (dropped t));
      ("samples", Jsonx.Arr (List.map sample_json (samples t)));
    ]

(* Counter events carry deterministic virtual timestamps (one
   microsecond per dynamic instruction) so the series plots against
   program progress, not wall clock. *)
let emit_trace_counters ?(name = "vm") t =
  List.iter
    (fun s ->
      let ts_us = float_of_int s.dyn_instrs in
      Trace.counter ~cat:"telemetry" ~ts_us (name ^ ".cost")
        [
          ("base_cost", float_of_int s.base_cost);
          ("instr_cost", float_of_int s.instr_cost);
        ];
      Trace.counter ~cat:"telemetry" ~ts_us (name ^ ".paths")
        [ ("dyn_paths", float_of_int s.dyn_paths) ];
      Trace.counter ~cat:"telemetry" ~ts_us (name ^ ".stack")
        [ ("depth", float_of_int s.depth); ("calls", float_of_int s.calls) ])
    (samples t)

(* {2 Per-routine trip accounting}

   The routine-resolved counters the hot-routine detector runs on: one
   entry count ("trip") per lowered plan, bumped at every frame entry
   and loop back edge the tier controller watches, until the routine's
   tier decision (the controller stops tripping it). Dense int arrays
   indexed by the program's routine order, so a bump is one load, one
   store — cheap enough to leave on for a whole tiered run. *)
module Trips = struct
  type nonrec t = { counts : int array; mutable total : int }

  let create ~n =
    if n < 0 then invalid_arg "Telemetry.Trips.create: n must be >= 0";
    { counts = Array.make (max 1 n) 0; total = 0 }

  let bump t i =
    let c = t.counts.(i) + 1 in
    t.counts.(i) <- c;
    t.total <- t.total + 1;
    c

  let count t i = t.counts.(i)
  let total t = t.total

  let to_json ~names t =
    let n = min (Array.length names) (Array.length t.counts) in
    Jsonx.Obj
      [
        ("total", Jsonx.Int t.total);
        ( "routines",
          Jsonx.Obj
            (List.init n (fun i -> (names.(i), Jsonx.Int t.counts.(i)))) );
      ]
end

(* The hot-routine detector the tiered-execution roadmap item will run
   on: per-sample deltas of instruction throughput. A routine-resolved
   version needs per-plan counters; the windowed global rate is what the
   snapshot ring can answer today. *)
let rates t =
  let rec deltas acc = function
    | a :: (b :: _ as rest) ->
        deltas
          ((b.seq, b.dyn_instrs - a.dyn_instrs, b.dyn_paths - a.dyn_paths)
          :: acc)
          rest
    | _ -> List.rev acc
  in
  deltas [] (samples t)
