(* Spans the ledger places around public calls in its traced run. Each
   is mirrored into [Ppp_obs.Trace], so the Chrome trace shows it beside
   the library's own spans, while the durations behind the self-time
   table come from the monotonic clock. Off by default: [with_] is then
   a plain call. *)

module Trace = Ppp_obs.Trace

type agg = { mutable calls : int; mutable total : float; mutable self : float }

let on = ref false
let table : (string, agg) Hashtbl.t = Hashtbl.create 64
let first_seen = ref []

(* Time covered by child spans, one accumulator per open span. *)
let open_children : float ref list ref = ref []

(* Work counted at the same boundaries (guest instructions, costs,
   swaps), so ratios are formed where the work happens. *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 16

let start () =
  Hashtbl.reset table;
  Hashtbl.reset counts;
  first_seen := [];
  open_children := [];
  on := true

let count name n =
  if !on then
    Hashtbl.replace counts name
      (n + Option.value ~default:0 (Hashtbl.find_opt counts name))

let counted name = Option.value ~default:0 (Hashtbl.find_opt counts name)

let stop () = on := false

let record name ~dur ~children =
  let a =
    match Hashtbl.find_opt table name with
    | Some a -> a
    | None ->
        let a = { calls = 0; total = 0.; self = 0. } in
        Hashtbl.add table name a;
        first_seen := name :: !first_seen;
        a
  in
  a.calls <- a.calls + 1;
  a.total <- a.total +. dur;
  a.self <- a.self +. (dur -. children)

let with_ name f =
  if not !on then f ()
  else
    Trace.with_span ~cat:"ledger" name @@ fun () ->
    let children = ref 0. in
    open_children := children :: !open_children;
    let t0 = Clock.now_ns () in
    Fun.protect f ~finally:(fun () ->
        let dur = Clock.seconds_since t0 in
        open_children := List.tl !open_children;
        (match !open_children with
        | parent :: _ -> parent := !parent +. dur
        | [] -> ());
        record name ~dur ~children:!children)

let find name = Hashtbl.find_opt table name
let calls name = match find name with Some a -> a.calls | None -> 0

(* Self time in seconds: the span's duration minus its children's. *)
let self_s name = match find name with Some a -> a.self | None -> 0.

(* [(name, calls, total_s, self_s)] in the order spans first closed. *)
let rows () =
  List.rev_map
    (fun name ->
      let a = Hashtbl.find table name in
      (name, a.calls, a.total, a.self))
    !first_seen
