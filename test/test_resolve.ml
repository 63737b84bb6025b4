(* The variant-resolution policy, tested directly. The engine
   differentials cannot catch a fault in it, because both engines call
   it: these tests pin the canonical order (trip, tick, resolve), the
   install rule, the swap notes and the path-register re-arm on their
   own. *)

module Ir = Ppp_ir.Ir
module Interp = Ppp_interp.Interp
module Instr_rt = Ppp_interp.Instr_rt
module Resolve = Ppp_interp.Resolve
module Sampling = Ppp_interp.Sampling
module Tier = Ppp_interp.Tier
module Obs = Ppp_obs.Metrics

(* Routine indices in [src]: main is uninstrumented; f and g are
   instrumented and have four blocks, so a reversed order re-lays them
   out. Resolve never executes the code. *)
let main = 0
let f = 1
let g = 2

let src =
  {|routine main(0) regs 1 {
entry:
  r0 = call f(0)
  r0 = call g(r0)
  ret r0
}
routine f(1) regs 2 {
entry:
  r1 = 0
  jump test
test:
  r1 = r1 < 4
  br r1, body, done
body:
  jump test
done:
  ret r1
}
routine g(1) regs 2 {
entry:
  r1 = 1
  jump test
test:
  r1 = r1 < 4
  br r1, body, done
body:
  jump test
done:
  ret r1
}|}

let p = Ppp_ir.Parse.program_of_string src
let plain = 1
let generation = 2

(* Edge 0 of f: a count between register actions; edge 1: no count;
   edge 2: a count last; edge 3: no actions; edge 4: a combined count
   after a set. *)
let f_actions =
  Instr_rt.
    [|
      [ Set_r 5; Add_r 2; Count_r; Set_r 7; Add_r 3 ];
      [ Add_r 4; Set_r 1; Add_r 2 ];
      [ Add_r 6; Count_const 3 ];
      [];
      [ Set_r 9; Count_r_plus 1; Add_r 4 ];
    |]

let instrumentation () =
  let instr = Instr_rt.no_instrumentation () in
  List.iter
    (fun (name, edge_actions) ->
      Hashtbl.replace instr name
        { Instr_rt.edge_actions; table = Instr_rt.Array_table 8; num_paths = 8 })
    [ ("f", f_actions); ("g", Array.make 5 []) ];
  instr

let reversed ~routine:_ ~counters:_ = Some [| 0; 3; 2; 1 |]
let identity ~routine:_ ~counters:_ = Some [| 0; 1; 2; 3 |]

(* A policy for [p] under these specs, and the generations it asked to
   be built, latest first. *)
let start ?sampling ?tier () =
  let instr = instrumentation () in
  let config =
    { Interp.default_config with Interp.instrumentation = Some instr; sampling; tier }
  in
  let built = ref [] in
  let t =
    Resolve.start config ~tables:(Instr_rt.init_state instr) p
      ~install:(fun ~idx ~order:_ ~gen -> built := (idx, gen) :: !built)
  in
  (t, built)

(* The [tier.*] and [rt.sample.*] counters [t] flushes. *)
let counters t =
  Obs.set_enabled true;
  Obs.reset ();
  Resolve.flush_metrics t;
  let s = Obs.snapshot () in
  Obs.set_enabled false;
  fun k -> Option.value ~default:0 (Obs.counter_value s k)

(* A frame entry whose trip fires already runs the routine's new stream:
   the trip comes before the resolution. Only a genuine order builds a
   generation; anything else installs the plain stream. *)
let fire_at_entry () =
  List.iter
    (fun (label, plan, want, built_want) ->
      let t, built = start ~tier:(Tier.spec ~threshold:2 ?plan ()) () in
      Alcotest.(check int) (label ^ ": below the threshold") Resolve.instr
        (Resolve.enter t f);
      Alcotest.(check bool) (label ^ ": pending, so resolving") true
        (Resolve.must_redecide t).(f);
      Alcotest.(check int) (label ^ ": the firing entry") want (Resolve.enter t f);
      Alcotest.(check bool) (label ^ ": decided, so done resolving") false
        (Resolve.must_redecide t).(f);
      Alcotest.(check int) (label ^ ": a later entry") want (Resolve.enter t f);
      Alcotest.(check (list (pair int int))) (label ^ ": generations built")
        built_want !built;
      Alcotest.(check int) (label ^ ": entries on the new stream") 2
        (counters t "tier.entry_swaps"))
    [
      ("genuine order", Some reversed, generation, [ (f, 1) ]);
      ("identity order", Some identity, plain, []);
      ("no order", None, plain, []);
    ]

(* Every resolution point takes a tick, whether or not its routine has
   tiered up: f (denied, so never tiered) sees the sampler's own
   schedule even though g's resolutions, all tiered, come in between. *)
let tick_everywhere () =
  let spec = Sampling.spec ~denom:3 ~burst:2 ~seed:5 () in
  let t, _ =
    start ~sampling:spec ~tier:(Tier.spec ~threshold:1 ~budget:1 ~plan:reversed ()) ()
  in
  let schedule = Sampling.start spec in
  let expect () =
    if Sampling.tick schedule then Resolve.instr else plain
  in
  Alcotest.(check int) "g fires at its entry" generation (Resolve.enter t g);
  ignore (expect ());
  let f_stream = ref Resolve.instr in
  for i = 1 to 40 do
    let label what = Printf.sprintf "step %d: %s" i what in
    if i mod 3 = 0 then begin
      Alcotest.(check int) (label "g stays tiered") generation
        (Resolve.back_edge t g ~from:generation);
      ignore (expect ())
    end
    else if i mod 5 = 0 then begin
      let want = expect () in
      Alcotest.(check int) (label "f's entry follows the schedule") want
        (Resolve.enter t f)
    end
    else begin
      let want = expect () in
      let s = Resolve.back_edge t f ~from:!f_stream in
      Alcotest.(check int) (label "f's back edge follows the schedule") want s;
      f_stream := s
    end
  done;
  let c = counters t in
  Alcotest.(check (list int)) "ticks, bursts"
    [ Sampling.on_ticks schedule; Sampling.off_ticks schedule; Sampling.bursts schedule ]
    [ c "rt.sample.on_ticks"; c "rt.sample.off_ticks"; c "rt.sample.bursts" ];
  Alcotest.(check int) "one tick per resolution point" 41
    (c "rt.sample.on_ticks" + c "rt.sample.off_ticks")

(* Once a routine has tiered up, its current stream wins over an
   on-burst tick, at entries and at back edges. *)
let swap_wins () =
  List.iter
    (fun (label, plan, want) ->
      let always_on = Sampling.spec ~denom:1 () in
      let t, _ = start ~sampling:always_on ~tier:(Tier.spec ~threshold:2 ?plan ()) () in
      Alcotest.(check int) (label ^ ": on-burst before the swap") Resolve.instr
        (Resolve.enter t f);
      Alcotest.(check int) (label ^ ": the firing back edge") want
        (Resolve.back_edge t f ~from:Resolve.instr);
      Alcotest.(check int) (label ^ ": a later back edge") want
        (Resolve.back_edge t f ~from:want);
      Alcotest.(check int) (label ^ ": a later entry") want (Resolve.enter t f);
      Alcotest.(check bool) (label ^ ": sampling, so still resolving") true
        (Resolve.must_redecide t).(f);
      Alcotest.(check int) (label ^ ": untiered main") Resolve.instr
        (Resolve.enter t main))
    [ ("genuine order", Some reversed, generation); ("no order", None, plain) ]

(* An OSR swap is noted only where a frame's stream changes. Under
   alternating ticks, one of two frames enters on-burst and the other
   off-burst; then f tiers up at the first one's back edge. Without an
   order the off-burst frame already runs the plain stream it lands on,
   so only the on-burst one is noted; with an order, both move. *)
let osr_notes () =
  List.iter
    (fun (label, plan, want_stream, want_notes) ->
      let alternate = Sampling.spec ~denom:2 ~burst:1 ~seed:3 () in
      let t, _ = start ~sampling:alternate ~tier:(Tier.spec ~threshold:3 ?plan ()) () in
      let a = Resolve.enter t f in
      let b = Resolve.enter t f in
      Alcotest.(check (list int)) (label ^ ": one frame on, one off")
        [ Resolve.instr; plain ] (List.sort compare [ a; b ]);
      Alcotest.(check int) (label ^ ": the firing frame crosses") want_stream
        (Resolve.back_edge t f ~from:a);
      Alcotest.(check int) (label ^ ": the other frame crosses") want_stream
        (Resolve.back_edge t f ~from:b);
      Alcotest.(check int) (label ^ ": a crossed frame stays") want_stream
        (Resolve.back_edge t f ~from:want_stream);
      let c = counters t in
      Alcotest.(check (pair int int)) (label ^ ": OSR and entry notes")
        (want_notes, 0)
        (c "tier.osr_swaps", c "tier.entry_swaps"))
    [ ("no order", None, plain, 1); ("genuine order", Some reversed, generation, 2) ]

(* Re-arming a frame switched on-burst at an edge: what the actions after
   the edge's last count leave in a register starting at 0. *)
let rearm_suffix () =
  let t, _ = start ~sampling:(Sampling.spec ~denom:2 ()) () in
  Alcotest.(check (list int)) "per edge" [ 10; 3; 0; 0; 4 ]
    (List.init (Array.length f_actions) (Resolve.rearm t f))

(* Without instrumentation nothing samples or tiers: every frame runs
   the one stream and nothing needs resolving. *)
let inert_without_instrumentation () =
  let config =
    {
      Interp.default_config with
      Interp.sampling = Some (Sampling.spec ~denom:4 ());
      tier = Some (Tier.spec ~threshold:1 ~plan:reversed ());
    }
  in
  let t = Resolve.start config ~tables:(Hashtbl.create 1) p in
  for _ = 1 to 3 do
    Alcotest.(check int) "entry" Resolve.instr (Resolve.enter t f);
    Alcotest.(check int) "back edge" Resolve.instr
      (Resolve.back_edge t f ~from:Resolve.instr)
  done;
  Alcotest.(check bool) "no resolving" false (Resolve.must_redecide t).(f);
  Alcotest.(check int) "no decisions" 0 (List.length (Resolve.decisions t))

let suite =
  [
    Alcotest.test_case "a trip firing at an entry runs that frame swapped"
      `Quick fire_at_entry;
    Alcotest.test_case "every resolution point ticks, tiered or not" `Quick
      tick_everywhere;
    Alcotest.test_case "a tier swap wins over the burst" `Quick swap_wins;
    Alcotest.test_case "an OSR swap is noted only on a stream change" `Quick
      osr_notes;
    Alcotest.test_case "the re-arm runs the suffix after the last count"
      `Quick rearm_suffix;
    Alcotest.test_case "inert without instrumentation" `Quick
      inert_without_instrumentation;
  ]
