module Obs = Ppp_obs.Metrics
module Jsonx = Ppp_obs.Jsonx

type kind =
  | Corrupt
  | Stale
  | Unknown_routine
  | Truncated
  | Exhausted
  | Saturated
  | Shard_lost
  | Io
  | Unreachable
  | Deadline_exceeded
  | Degraded
  | Quarantined
type severity = Warning | Error

type t = {
  kind : kind;
  severity : severity;
  line : int option;
  token : string option;
  routine : string option;
  message : string;
}

let kind_name = function
  | Corrupt -> "corrupt"
  | Stale -> "stale"
  | Unknown_routine -> "unknown-routine"
  | Truncated -> "truncated"
  | Exhausted -> "exhausted"
  | Saturated -> "saturated"
  | Shard_lost -> "shard-lost"
  | Io -> "io"
  | Unreachable -> "unreachable"
  | Deadline_exceeded -> "deadline"
  | Degraded -> "degraded"
  | Quarantined -> "quarantined"

let severity_name = function Warning -> "warning" | Error -> "error"

let all_kinds =
  [
    Corrupt;
    Stale;
    Unknown_routine;
    Truncated;
    Exhausted;
    Saturated;
    Shard_lost;
    Io;
    Unreachable;
    Deadline_exceeded;
    Degraded;
    Quarantined;
  ]

(* Registered at module init so every snapshot lists them, zeroed or not
   (the convention Ppp_obs establishes). *)
let m_kind =
  List.map (fun k -> (k, Obs.counter ("resilience.diag." ^ kind_name k))) all_kinds

let make ?(severity = Error) ?line ?token ?routine kind message =
  Obs.incr (List.assoc kind m_kind);
  { kind; severity; line; token; routine; message }

let errorf ?severity ?line ?token ?routine kind fmt =
  Format.kasprintf (fun s -> make ?severity ?line ?token ?routine kind s) fmt

let is_error d = d.severity = Error
let count_errors ds = List.length (List.filter is_error ds)

let pp ppf d =
  Format.fprintf ppf "%s: %s:" (severity_name d.severity) (kind_name d.kind);
  (match d.line with Some l -> Format.fprintf ppf " line %d" l | None -> ());
  (match d.token with Some t -> Format.fprintf ppf " (%S)" t | None -> ());
  Format.fprintf ppf " %s" d.message;
  match d.routine with
  | Some r -> Format.fprintf ppf " (routine %s)" r
  | None -> ()

let pp_list ppf ds = List.iter (fun d -> Format.fprintf ppf "%a@." pp d) ds

let to_json d =
  let opt f = function Some v -> f v | None -> Jsonx.Null in
  Jsonx.Obj
    [
      ("kind", Jsonx.Str (kind_name d.kind));
      ("severity", Jsonx.Str (severity_name d.severity));
      ("line", opt (fun l -> Jsonx.Int l) d.line);
      ("token", opt (fun t -> Jsonx.Str t) d.token);
      ("routine", opt (fun r -> Jsonx.Str r) d.routine);
      ("message", Jsonx.Str d.message);
    ]

let list_to_json ds = Jsonx.Arr (List.map to_json ds)

(* The inverse of [to_json], lenient the way a reader of another
   process's output must be: an unknown kind reads as [Io], a missing
   severity as [Error]. *)
let of_json j =
  let str key =
    match Jsonx.member j key with Some (Jsonx.Str s) -> Some s | _ -> None
  in
  let kind =
    Option.bind (str "kind") (fun n ->
        List.find_opt (fun k -> kind_name k = n) all_kinds)
  in
  let severity =
    match str "severity" with Some "warning" -> Warning | _ -> Error
  in
  let line =
    match Jsonx.member j "line" with Some (Jsonx.Int l) -> Some l | _ -> None
  in
  make ~severity ?line ?token:(str "token") ?routine:(str "routine")
    (Option.value ~default:Io kind)
    (Option.value ~default:"" (str "message"))

let list_of_json j = List.map of_json (Jsonx.to_list j)
