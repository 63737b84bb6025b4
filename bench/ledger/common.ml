(* What every workload shares: sizes, the unit-of-work record, the
   reference engine's results the verify pass compares against, and the
   process helpers (verify workers, peak RSS, scratch directories). *)

module Interp = Ppp_interp.Interp
module Spec = Ppp_workloads.Spec
module Raw = Ppp_profile.Profile_io.Raw

type sizes = {
  scale : int;  (** collect and tiered programs *)
  daemon_scale : int;
  daemon_benches : Spec.bench list;
  setup_reps : int;  (** set-ups per run; [setup_s] is their median *)
  fleet_depth : int;  (** rounds the sampled fleet store decays over *)
  sample_denom : int;
}

let full =
  {
    scale = 16;
    daemon_scale = 1;
    daemon_benches = Spec.all;
    setup_reps = 3;
    fleet_depth = 8;
    sample_denom = 16;
  }

let smoke =
  {
    full with
    scale = 1;
    daemon_benches = List.filteri (fun i _ -> i < 2) Spec.all;
    setup_reps = 1;
  }

(* One unit of work as its workload timed it: a round, or a cycle of
   daemon requests. Only the user-visible work is inside [dur_s], never
   bookkeeping. *)
type sample = { dur_s : float; attempted : int; failed : int }

(* A verify comparison: what was compared and whether it held. *)
type check = string * bool

(* What the verify pass found: its comparisons, and the ungated figures
   (name, value, unit) the workload reports beside its gated metrics:
   the cost model's, from the runs verify made, and per-request
   latencies. *)
type verified = { checks : check list; info : (string * float * string) list }

(* A set-up workload, ready for timed units. *)
type handle = {
  unit_of_work : int -> sample;
  peak_rss_kb : unit -> int;
  verify : unit -> verified;
  stop : unit -> unit;
}

let plain =
  { Interp.default_config with collect_edges = false; trace_paths = false }

(* The outcome digest every engine and mode must agree on: return
   value, output, base cost. *)
type digest = int option * int list * int

let digest (o : Interp.outcome) : digest =
  (o.Interp.return_value, o.Interp.output, o.Interp.base_cost)

(* One VM run inside span [span], counting its guest instructions, paths
   and costs at the same boundary. *)
let vm_run span ?config p =
  let o = Span.with_ span (fun () -> Interp.run ?config p) in
  Span.count span o.Interp.dyn_instrs;
  Span.count (span ^ ".paths") o.Interp.dyn_paths;
  Span.count (span ^ ".base_cost") o.Interp.base_cost;
  Span.count (span ^ ".instr_cost") o.Interp.instr_cost;
  o

(* The tree-walking reference engine: the paper's executable semantics. *)
let reference ?(config = plain) p = Interp.run ~engine:Interp.Reference ~config p

(* [List.map f xs] over two forked workers, in order. The verify pass is
   never timed, so it spreads its per-program work like a shard round
   and keeps each run of the benchmark short. A lost worker fails the
   pass. *)
let par_map f xs =
  List.map
    (function
      | Ok v -> v
      | Error d ->
          failwith (Format.asprintf "verify: %a" Ppp_resilience.Diagnostic.pp d))
    (Ppp_harness.Shard.map ~jobs:2 ~f:(fun ~seed:_ x -> f x) xs)

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Some text
  | exception Sys_error _ -> None

(* VmHWM of a live process, in kB; 0 when /proc does not say. *)
let peak_rss_kb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0
  | Some text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] -> (
                 try Some (Scanf.sscanf (String.trim v) "%d kB" Fun.id)
                 with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
             | _ -> None)
      |> Option.value ~default:0

(* Peak RSS of the largest child this process has reaped (getrusage
   RUSAGE_CHILDREN), in kB. *)
external reaped_children_peak_rss_kb : unit -> int = "ledger_reaped_children_maxrss_kb"
[@@noalloc]

(* The peak of the largest process a round-based workload ran: its own
   process or a shard worker it forked and reaped. *)
let workload_peak_rss_kb () =
  max (peak_rss_kb "self") (reaped_children_peak_rss_kb ())

(* The live children of [pid]. *)
let children pid =
  match read_file (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | None -> []
  | Some text ->
      List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim text))

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let mkdir_p path =
  try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* The ledger's scratch directory, inside dune's build directory, which
   every checkout already ignores. The ledger writes nowhere else. *)
let scratch = Filename.concat "_build" "ledger"

(* A fresh directory under [scratch]. Paths stay relative so socket
   names fit the kernel's limit. *)
let fresh_dir =
  let n = ref 0 in
  fun tag ->
    mkdir_p "_build";
    mkdir_p scratch;
    incr n;
    let d =
      Filename.concat scratch (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !n)
    in
    remove_tree d;
    Unix.mkdir d 0o755;
    d

(* What the reference engine says about one program at the workloads'
   scale: its outcome digest, and the dumps built from its edge profile
   alone and from its edge and path profiles. *)
type expected = {
  bench : string;
  outcome : digest;
  exact_edges : string;
  exact_dump : string;
}

(* [expected] for every program, in [Spec.all] order. None of it depends
   on the seed, and the reference engine at scale 16 is the slowest part
   of the verify pass, so it is computed once per build of the ledger and
   kept under [scratch], keyed by the executable's digest. A missing or
   unreadable file is recomputed. *)
let expected ~scale =
  let path =
    Filename.concat scratch
      (Printf.sprintf "expected-%d-%s" scale
         (Digest.to_hex (Digest.file Sys.executable_name)))
  in
  let compute (b : Spec.bench) =
    let p = b.Spec.build ~scale in
    let r = reference ~config:Interp.default_config p in
    let dump ?paths () =
      Raw.to_string (Raw.of_program ?edges:r.Interp.edge_profile ?paths p)
    in
    { bench = b.Spec.bench_name;
      outcome = digest r;
      exact_edges = dump ();
      exact_dump = dump ?paths:r.Interp.path_profile () }
  in
  match
    In_channel.with_open_bin path (fun ic -> (Marshal.from_channel ic : expected list))
  with
  | cached -> cached
  | exception (Sys_error _ | End_of_file | Failure _) ->
      let computed = par_map compute Spec.all in
      mkdir_p "_build";
      mkdir_p scratch;
      let tmp = Printf.sprintf "%s.%d" path (Unix.getpid ()) in
      Out_channel.with_open_bin tmp (fun oc -> Marshal.to_channel oc computed []);
      Unix.rename tmp path;
      computed

(* A fixed pure-OCaml loop: its time tracks the host's speed, not the
   code under test, so drift between runs shows up here first. *)
let host_probe_ms () =
  let t0 = Clock.now_ns () in
  let x = ref 1 in
  for i = 1 to 30_000_000 do
    x := ((!x * 1103515245) + i) land 0xFFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  1000. *. Clock.seconds_since t0
