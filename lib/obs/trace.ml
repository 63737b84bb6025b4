type event = {
  name : string;
  cat : string;
  ph : [ `Complete | `Instant | `Counter | `Metadata ];
  ts_us : float;
  dur_us : float;
  args : (string * string) list;
  nargs : (string * float) list;
}

let on = ref false
let events_rev : event list ref = ref []

(* Spans read the monotonic clock, which wall-clock adjustments cannot
   move; [epoch] is its reading at [start], in nanoseconds. *)
let epoch = ref (Monotonic_clock.now ())

let now_us () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) !epoch) /. 1e3

let start () =
  events_rev := [];
  epoch := Monotonic_clock.now ();
  on := true

let stop () = on := false
let enabled () = !on

let push ev = events_rev := ev :: !events_rev

let with_span ?(cat = "pipeline") ?(args = []) name f =
  if not !on then f ()
  else begin
    let t0 = now_us () in
    let record () =
      push
        {
          name;
          cat;
          ph = `Complete;
          ts_us = t0;
          dur_us = now_us () -. t0;
          args;
          nargs = [];
        }
    in
    match f () with
    | v ->
        record ();
        v
    | exception e ->
        record ();
        raise e
  end

let instant ?(cat = "mark") ?(args = []) name =
  if !on then
    push
      {
        name;
        cat;
        ph = `Instant;
        ts_us = now_us ();
        dur_us = 0.0;
        args;
        nargs = [];
      }

let counter ?(cat = "telemetry") ?ts_us name series =
  if !on then
    push
      {
        name;
        cat;
        ph = `Counter;
        ts_us = (match ts_us with Some t -> t | None -> now_us ());
        dur_us = 0.0;
        args = [];
        nargs = series;
      }

let metadata ~name value =
  if !on then
    push
      {
        name;
        cat = "__metadata";
        ph = `Metadata;
        ts_us = 0.0;
        dur_us = 0.0;
        args = [ ("name", value) ];
        nargs = [];
      }

let label_process ?(thread = "main") process =
  metadata ~name:"process_name" process;
  metadata ~name:"thread_name" thread

let events () = List.rev !events_rev

(* Every string — names, categories and argument values alike — renders
   through Jsonx so arbitrary bytes (quotes, newlines, binary garbage in
   a workload name) always produce standard JSON, same as the metrics
   sinks. *)
let event_json ev =
  let base =
    [
      ("name", Jsonx.Str ev.name);
      ("cat", Jsonx.Str ev.cat);
      ( "ph",
        Jsonx.Str
          (match ev.ph with
          | `Complete -> "X"
          | `Instant -> "i"
          | `Counter -> "C"
          | `Metadata -> "M") );
      ("ts", Jsonx.Float ev.ts_us);
      ("pid", Jsonx.Int 1);
      ("tid", Jsonx.Int 1);
    ]
  in
  let dur =
    match ev.ph with
    | `Complete -> [ ("dur", Jsonx.Float ev.dur_us) ]
    | `Instant -> [ ("s", Jsonx.Str "t") ]
    | `Counter | `Metadata -> []
  in
  let args =
    match
      List.map (fun (k, v) -> (k, Jsonx.Str v)) ev.args
      @ List.map (fun (k, v) -> (k, Jsonx.Float v)) ev.nargs
    with
    | [] -> []
    | fields -> [ ("args", Jsonx.Obj fields) ]
  in
  Jsonx.Obj (base @ dur @ args)

let to_json () =
  Jsonx.Obj
    [
      ("traceEvents", Jsonx.Arr (List.map event_json (events ())));
      ("displayTimeUnit", Jsonx.Str "ms");
    ]

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Jsonx.to_string (to_json ())))
