(* The hotness controller behind tiered in-VM re-optimization.

   Both engines drive one of these through the same protocol: [trip] at
   every frame entry and path-ending back edge (a no-op once the
   routine's decision is made); when it answers [true] the caller
   gathers the routine's live path counters and calls [fire], which
   spends budget, asks the planner for a hot-path-first block order,
   and logs the decision. The controller never looks at the
   engine — its state is a pure function of the trip/fire call sequence,
   which is identical across the VM and the reference tree-walker, so
   tier decisions (and the tier.* metrics) are engine-invariant by
   construction. *)

module Obs = Ppp_obs.Metrics

type planner = routine:string -> counters:(int * int) list -> int array option

type spec = { threshold : int; budget : int; plan : planner option }

let default_threshold = 8
let default_budget = max_int

let spec ?(threshold = default_threshold) ?(budget = default_budget) ?plan () =
  if threshold < 1 then invalid_arg "Tier.spec: threshold must be >= 1";
  if budget < 0 then invalid_arg "Tier.spec: budget must be >= 0";
  { threshold; budget; plan }

type decision = {
  d_routine : string;
  d_trips : int;  (** trip count at the moment the routine tiered up *)
  d_gen : int;  (** 1-based optimized-generation number, program-wide *)
  d_reordered : bool;  (** the planner produced a non-source block order *)
  d_order : int array option;
      (** the installed block order itself, for post-run layout scoring *)
}

type t = {
  threshold : int;
  plan : planner option;
  trips : Telemetry.Trips.t;
  tiered : bool array;
  mutable budget_left : int;
  mutable gen : int;
  mutable log_rev : decision list;
  mutable n_denied : int;
  mutable n_entry_swaps : int;
  mutable n_osr_swaps : int;
}

let start (s : spec) ~nroutines =
  {
    threshold = s.threshold;
    plan = s.plan;
    trips = Telemetry.Trips.create ~n:nroutines;
    tiered = Array.make (max 1 nroutines) false;
    budget_left = s.budget;
    gen = 0;
    log_rev = [];
    n_denied = 0;
    n_entry_swaps = 0;
    n_osr_swaps = 0;
  }

(* One bump per watched event, up to the routine's decision: the trip
   that reaches the threshold fires while budget remains and is counted
   as a denial otherwise. Either way the decision is final, so from then
   on a trip is a no-op — not counted, never firing. Both engines trip
   at the same points, so this one rule keeps them in step, and lets
   the VM stop resolving where nothing is left to decide. *)
let pending t i = Telemetry.Trips.count t.trips i < t.threshold

let trip t i =
  if not (pending t i) then false
  else if Telemetry.Trips.bump t.trips i < t.threshold then false
  else if t.budget_left > 0 then true
  else begin
    t.n_denied <- t.n_denied + 1;
    false
  end

let fire t ~idx ~name ~counters =
  t.tiered.(idx) <- true;
  t.budget_left <- t.budget_left - 1;
  t.gen <- t.gen + 1;
  let order = match t.plan with None -> None | Some f -> f ~routine:name ~counters in
  t.log_rev <-
    {
      d_routine = name;
      d_trips = Telemetry.Trips.count t.trips idx;
      d_gen = t.gen;
      d_reordered = order <> None;
      d_order = order;
    }
    :: t.log_rev;
  order

let is_tiered t i = t.tiered.(i)
let trips t = t.trips
let decisions t = List.rev t.log_rev
let swaps t = t.gen
let note_entry_swap t = t.n_entry_swaps <- t.n_entry_swaps + 1
let note_osr_swap t = t.n_osr_swaps <- t.n_osr_swaps + 1

(* {2 tier.* metric family} *)

let m_trips = Obs.counter "tier.trips"
let m_swaps = Obs.counter "tier.swaps"
let m_reorders = Obs.counter "tier.reorders"
let m_denied = Obs.counter "tier.denied_budget"
let m_entry = Obs.counter "tier.entry_swaps"
let m_osr = Obs.counter "tier.osr_swaps"

let flush_metrics t =
  Obs.add m_trips (Telemetry.Trips.total t.trips);
  Obs.add m_swaps t.gen;
  Obs.add m_reorders
    (List.length (List.filter (fun d -> d.d_reordered) t.log_rev));
  Obs.add m_denied t.n_denied;
  Obs.add m_entry t.n_entry_swaps;
  Obs.add m_osr t.n_osr_swaps
