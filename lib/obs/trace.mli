(** Span-based phase tracing, exported as Chrome trace-event JSON.

    Wrap each pipeline phase in {!with_span}; after the run,
    {!write_file} produces a file that loads directly in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. Spans
    are recorded as complete ("ph":"X") events with microsecond
    timestamps relative to {!start}, so nesting falls out of duration
    containment and no begin/end pairing is needed.

    Besides spans and instants, the recorder supports counter events
    ("ph":"C") — numeric time series the viewers plot as stacked area
    charts, used for VM telemetry — and metadata events ("ph":"M") that
    label the process and thread rows. Every string escapes through
    {!Jsonx}, so arbitrary bytes in names or argument values always
    yield standard JSON.

    Tracing is off by default; {!with_span} then costs one load and one
    branch around the wrapped function. *)

type event = {
  name : string;
  cat : string;
  ph : [ `Complete | `Instant | `Counter | `Metadata ];
  ts_us : float;  (** start, microseconds since {!start} *)
  dur_us : float;  (** 0 except for [`Complete] *)
  args : (string * string) list;  (** string-valued arguments *)
  nargs : (string * float) list;
      (** numeric arguments; the series of a [`Counter] event *)
}

val start : unit -> unit
(** Enable tracing, drop previously recorded events, and reset the
    clock origin. *)

val now_us : unit -> float
(** The clock spans are stamped with: monotonic, in microseconds since
    {!start} (or since program start before the first one). Differences
    of two readings are durations, whether tracing is on or off. *)

val stop : unit -> unit
(** Disable tracing; recorded events are kept for export. *)

val enabled : unit -> bool

val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] and, if tracing is enabled, records
    a complete event covering its duration (also when [f] raises). *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** Record a zero-duration marker. *)

val counter :
  ?cat:string -> ?ts_us:float -> string -> (string * float) list -> unit
(** [counter name series] records a Chrome counter event ("ph":"C"):
    each [(key, value)] pair becomes one plotted series under the
    counter's track. [ts_us] overrides the timestamp (microseconds
    since {!start}) — the VM telemetry exporter uses it to place
    samples at their recorded positions instead of export time. *)

val metadata : name:string -> string -> unit
(** [metadata ~name v] records a "ph":"M" metadata event, e.g.
    [metadata ~name:"process_name" "pppc"]; trace viewers use these to
    label the process and thread rows. *)

val label_process : ?thread:string -> string -> unit
(** Convenience: emit [process_name] (and [thread_name], default
    ["main"]) metadata so spans show up under a named row. *)

val events : unit -> event list
(** Recorded events in completion order. *)

val to_json : unit -> Jsonx.t
(** The Chrome trace-event envelope:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)

val write_file : string -> unit
(** Write {!to_json} to a file (a valid, possibly empty, trace even if
    tracing never started). *)
