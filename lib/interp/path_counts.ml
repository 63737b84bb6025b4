(* Open addressing with linear probing over int keys, load factor at
   most 1/2; ids are handed out in first-occurrence order. *)

type t = {
  mutable keys : int array; (* id -> path number *)
  mutable counts : int array; (* id -> executions *)
  mutable n : int; (* distinct numbered paths *)
  mutable slots : int array; (* slot -> id, or -1 *)
  mutable mask : int; (* Array.length slots - 1 *)
  segmented : int ref Ppp_profile.Path.Tbl.t;
      (* segment lists are int lists, hashed like paths *)
}

let create () =
  {
    keys = Array.make 16 0;
    counts = Array.make 16 0;
    n = 0;
    slots = Array.make 32 (-1);
    mask = 31;
    segmented = Ppp_profile.Path.Tbl.create 1;
  }

(* Multiplicative mix: path numbers are often dense, sometimes strided. *)
let slot mask k =
  let h = k * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land mask

let rec free_slot t s =
  if Array.unsafe_get t.slots s < 0 then s else free_slot t ((s + 1) land t.mask)

let grow t =
  let cap = Array.length t.keys in
  if t.n = cap then begin
    let keys = Array.make (2 * cap) 0 and counts = Array.make (2 * cap) 0 in
    Array.blit t.keys 0 keys 0 cap;
    Array.blit t.counts 0 counts 0 cap;
    t.keys <- keys;
    t.counts <- counts
  end;
  if 2 * (t.n + 1) >= Array.length t.slots then begin
    let nb = 2 * Array.length t.slots in
    t.slots <- Array.make nb (-1);
    t.mask <- nb - 1;
    for id = 0 to t.n - 1 do
      t.slots.(free_slot t (slot t.mask t.keys.(id))) <- id
    done
  end

let bump t k =
  let rec find s =
    let id = Array.unsafe_get t.slots s in
    if id < 0 then begin
      grow t;
      let id = t.n in
      t.n <- id + 1;
      t.keys.(id) <- k;
      t.counts.(id) <- 1;
      t.slots.(free_slot t (slot t.mask k)) <- id
    end
    else if Array.unsafe_get t.keys id = k then
      Array.unsafe_set t.counts id (Array.unsafe_get t.counts id + 1)
    else find ((s + 1) land t.mask)
  in
  find (slot t.mask k)

let bump_segments t segs =
  match Ppp_profile.Path.Tbl.find_opt t.segmented segs with
  | Some r -> incr r
  | None -> Ppp_profile.Path.Tbl.replace t.segmented segs (ref 1)

let num_distinct t = t.n + Ppp_profile.Path.Tbl.length t.segmented

let iter t f =
  for id = 0 to t.n - 1 do
    f [ t.keys.(id) ] t.counts.(id)
  done;
  Ppp_profile.Path.Tbl.iter (fun segs r -> f segs !r) t.segmented
