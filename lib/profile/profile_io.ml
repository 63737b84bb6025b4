module Ir = Ppp_ir.Ir
module Graph = Ppp_cfg.Graph
module Cfg_view = Ppp_ir.Cfg_view
module Diagnostic = Ppp_resilience.Diagnostic
module Stale_match = Ppp_resilience.Stale_match
module Fingerprint = Ppp_resilience.Fingerprint
module Crc = Ppp_resilience.Crc
module Obs = Ppp_obs.Metrics

let g_matched = Obs.gauge "resilience.matched_fraction"
let m_salvaged = Obs.counter "resilience.counts.salvaged"
let m_dropped = Obs.counter "resilience.counts.dropped"
let m_stale = Obs.counter "resilience.stale_routines"

(* {2 Small text helpers} *)

let first_token line =
  match String.index_opt line ' ' with
  | Some i -> String.sub line 0 i
  | None -> line

let split_tokens line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* "key=value" pairs of a cfg / section header line. *)
let kv_args tokens =
  List.filter_map
    (fun t ->
      match String.index_opt t '=' with
      | Some i ->
          Some (String.sub t 0 i, String.sub t (i + 1) (String.length t - i - 1))
      | None -> None)
    tokens

(* {2 The structural parser}

   One walker reads the v2 envelope (format header, cfg descriptions,
   checksummed sections, end marker) and reports what it finds through
   a {!sink}.
   What the counts {e mean} is the consumer's business: the
   program-based {!load} resolves routines against a program and
   salvages stale ones, while {!Raw.parse} keeps the dump's own view for
   program-free merging. Structural problems (malformed lines, checksum
   mismatches, truncation) are diagnosed here, identically for every
   consumer. *)

type section_kind = [ `Edges | `Paths ]

type sink = {
  on_desc : string -> Stale_match.cfg_desc -> unit;
      (** a v2 [cfg] header and its [b]/[e] lines, fully parsed *)
  on_section : section_kind -> unit;
      (** a v2 [section] header — implies "no current routine" *)
  on_routine : lineno:int -> string -> unit;
  on_edge : lineno:int -> token:string -> id:int -> count:int -> unit;
  on_path : lineno:int -> token:string -> path:int list -> count:int -> unit;
  on_diag : Diagnostic.t -> unit;
}

type walker = {
  sink : sink;
  mutable section : section_kind;
  mutable have_routine : bool;
}

let diag w d = w.sink.on_diag d

(* One line of a section's payload. *)
let payload_line w ~lineno raw =
  let line = String.trim raw in
  if line = "" || line.[0] = '#' then ()
  else
    match split_tokens line with
    | [ "routine"; name ] ->
        w.have_routine <- true;
        w.sink.on_routine ~lineno name
    | tokens ->
        if not w.have_routine then
          diag w
            (Diagnostic.errorf ~line:lineno ~token:(first_token line) Corrupt
               "counter before any 'routine' header")
        else begin
          match w.section with
          | `Edges -> (
              match tokens with
              | [ e; c ] when String.length e > 1 && e.[0] = 'e' -> (
                  match
                    ( int_of_string_opt (String.sub e 1 (String.length e - 1)),
                      int_of_string_opt c )
                  with
                  | Some id, Some count ->
                      w.sink.on_edge ~lineno ~token:e ~id ~count
                  | _ ->
                      diag w
                        (Diagnostic.errorf ~line:lineno ~token:e Corrupt
                           "malformed edge counter"))
              | _ ->
                  diag w
                    (Diagnostic.errorf ~line:lineno ~token:(first_token line)
                       Corrupt "expected 'e<ID> <count>'"))
          | `Paths -> (
              match tokens with
              | count :: ":" :: rest -> (
                  match
                    (int_of_string_opt count, List.map int_of_string_opt rest)
                  with
                  | Some c, ids when List.for_all Option.is_some ids ->
                      w.sink.on_path ~lineno ~token:count
                        ~path:(List.map Option.get ids) ~count:c
                  | _ ->
                      diag w
                        (Diagnostic.errorf ~line:lineno ~token:count Corrupt
                           "malformed path counter"))
              | _ ->
                  diag w
                    (Diagnostic.errorf ~line:lineno ~token:(first_token line)
                       Corrupt "expected '<count> : <edges>'"))
        end

let parse_cfg_header w lines i lineno line =
  let args = kv_args (split_tokens line) in
  let get k = List.assoc_opt k args in
  match
    ( get "routine",
      Option.bind (get "fp") Fingerprint.of_hex,
      Option.bind (get "blocks") int_of_string_opt,
      Option.bind (get "edges") int_of_string_opt )
  with
  | Some name, Some fp, Some nblocks, Some nedges
    when nblocks >= 0 && nblocks <= 1_000_000 && nedges >= 0
         && nedges <= 1_000_000 ->
      let labels = Array.make nblocks "" in
      let strict = Array.make nblocks 0 in
      let loose = Array.make nblocks 0 in
      let edges = Array.make nedges (-2, -2) in
      let n = Array.length lines in
      let want_b = ref 0 and want_e = ref 0 in
      let ok = ref true in
      while !ok && (!want_b < nblocks || !want_e < nedges) && !i < n do
        let raw = lines.(!i) in
        let l = String.trim raw in
        let ln = !i + 1 in
        if l = "" || l.[0] = '#' then incr i
        else if !want_b < nblocks && starts_with "b " l then begin
          (match split_tokens l with
          | [ "b"; lbl; sh; lh ] -> (
              match (Fingerprint.of_hex sh, Fingerprint.of_hex lh) with
              | Some s, Some weak ->
                  labels.(!want_b) <- lbl;
                  strict.(!want_b) <- s;
                  loose.(!want_b) <- weak
              | _ ->
                  diag w
                    (Diagnostic.errorf ~line:ln ~token:lbl ~routine:name Corrupt
                       "malformed block hash"))
          | _ ->
              diag w
                (Diagnostic.errorf ~line:ln ~routine:name Corrupt
                   "malformed 'b' line in cfg header"));
          incr want_b;
          incr i
        end
        else if !want_b >= nblocks && starts_with "e " l then begin
          (match split_tokens l with
          | [ "e"; id; src; dst ] -> (
              match
                (int_of_string_opt id, int_of_string_opt src,
                 int_of_string_opt dst)
              with
              | Some id, Some s, Some d when id >= 0 && id < nedges ->
                  edges.(id) <- (s, d)
              | _ ->
                  diag w
                    (Diagnostic.errorf ~line:ln ~token:id ~routine:name Corrupt
                       "malformed 'e' line in cfg header"))
          | _ ->
              diag w
                (Diagnostic.errorf ~line:ln ~routine:name Corrupt
                   "malformed 'e' line in cfg header"));
          incr want_e;
          incr i
        end
        else begin
          diag w
            (Diagnostic.errorf ~line:ln ~token:(first_token l) ~routine:name
               Corrupt "cfg header for %s is incomplete" name);
          ok := false
        end
      done;
      if !ok && (!want_b < nblocks || !want_e < nedges) then
        diag w
          (Diagnostic.errorf ~routine:name Truncated
             "cfg header for %s ends before its declared %d blocks / %d edges"
             name nblocks nedges);
      w.sink.on_desc name
        { Stale_match.fingerprint = fp; labels; strict; loose; edges }
  | _ ->
      diag w
        (Diagnostic.errorf ~line:lineno ~token:(first_token line) Corrupt
           "malformed cfg header")

(* The CRC-32 of [lines] joined by newlines (a section's payload),
   without building the joined text. *)
let crc_lines = function
  | [] -> Crc.string ""
  | l :: rest ->
      List.fold_left (fun c l -> Crc.update (Crc.update c "\n") l) (Crc.string l) rest

let parse_section w lines i lineno line =
  let tokens = split_tokens line in
  let kind =
    match tokens with
    | _ :: k :: _ when k = "edges" -> Some `Edges
    | _ :: k :: _ when k = "paths" -> Some `Paths
    | _ -> None
  in
  let args = kv_args tokens in
  match
    ( kind,
      Option.bind (List.assoc_opt "crc" args) Crc.of_hex,
      Option.bind (List.assoc_opt "lines" args) int_of_string_opt )
  with
  | Some kind, Some crc, Some k when k >= 0 ->
      w.section <- kind;
      w.have_routine <- false;
      w.sink.on_section kind;
      let n = Array.length lines in
      let available = min k (n - !i) in
      if available < k then
        diag w
          (Diagnostic.errorf ~line:lineno Truncated
             "section declares %d payload lines but only %d remain" k
             (max 0 available));
      let payload = Array.sub lines !i (max 0 available) in
      let start = !i in
      i := !i + max 0 available;
      if available = k && crc_lines (Array.to_list payload) <> crc then
        diag w
          (Diagnostic.errorf ~line:lineno Corrupt
             "checksum mismatch in %s section"
             (match kind with `Edges -> "edges" | `Paths -> "paths"));
      Array.iteri
        (fun j raw -> payload_line w ~lineno:(start + j + 1) raw)
        payload
  | _ ->
      diag w
        (Diagnostic.errorf ~line:lineno ~token:(first_token line) Corrupt
           "malformed section header")

(* Everything after the format header, from line index [start]. *)
let parse_v2 w lines start =
  let n = Array.length lines in
  let i = ref start in
  let seen_end = ref false in
  let stop = ref false in
  while (not !stop) && !i < n do
    let raw = lines.(!i) in
    let lineno = !i + 1 in
    let line = String.trim raw in
    incr i;
    if line = "" || line.[0] = '#' then ()
    else if !seen_end then begin
      diag w
        (Diagnostic.errorf ~line:lineno ~token:(first_token line) Corrupt
           "content after 'end' marker");
      stop := true
    end
    else if starts_with "cfg " line then parse_cfg_header w lines i lineno line
    else if starts_with "section " line then parse_section w lines i lineno line
    else if line = "end" then seen_end := true
    else
      diag w
        (Diagnostic.errorf ~line:lineno ~token:(first_token line) Corrupt
           "unexpected line")
  done;
  if not !seen_end then
    diag w (Diagnostic.errorf Truncated "dump ends without the 'end' marker")

(* The format header may follow blank or comment lines; text without
   one gets a single diagnostic at its first other line. *)
let parse_text sink text =
  let w = { sink; section = `Edges; have_routine = false } in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let rec header i =
    let line = if i < n then String.trim lines.(i) else "" in
    if i < n && (line = "" || line.[0] = '#') then header (i + 1)
    else if line = "ppp-profile v2" then parse_v2 w lines (i + 1)
    else
      diag w
        (Diagnostic.errorf ~line:(min (i + 1) n)
           ?token:(if line = "" then None else Some (first_token line))
           Corrupt "expected the 'ppp-profile v2' header")
  in
  header 0

(* {2 Raw dumps: the program-free merge layer} *)

(* Saturating addition of non-negative counts. *)
let sat_add a b = if a > max_int - b then max_int else a + b

module Raw = struct
  module Int_tbl = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash = Hashtbl.hash
  end)

  type t = {
    descs : (string, Stale_match.cfg_desc) Hashtbl.t;
    edges : (string, int Int_tbl.t) Hashtbl.t;
    paths : (string, int Path.Tbl.t) Hashtbl.t;
    mutable diags_rev : Diagnostic.t list;
    mutable lost : int;  (** count mass dropped, clipped or unsalvageable *)
  }

  let create () =
    {
      descs = Hashtbl.create 17;
      edges = Hashtbl.create 17;
      paths = Hashtbl.create 17;
      diags_rev = [];
      lost = 0;
    }

  let empty () = create ()
  let diagnostics t = List.rev t.diags_rev
  let lost t = t.lost

  (* Program-free read access: everything a profile-to-profile comparison
     needs without reconstructing either program. *)
  let routines t =
    let names = Hashtbl.create 17 in
    let note n _ = Hashtbl.replace names n () in
    Hashtbl.iter note t.descs;
    Hashtbl.iter note t.edges;
    Hashtbl.iter note t.paths;
    List.sort String.compare (Hashtbl.fold (fun n () acc -> n :: acc) names [])

  let desc t name = Hashtbl.find_opt t.descs name

  let iter_paths t name f =
    match Hashtbl.find_opt t.paths name with
    | None -> ()
    | Some per -> Path.Tbl.iter f per

  let iter_edges t name f =
    match Hashtbl.find_opt t.edges name with
    | None -> ()
    | Some per -> Int_tbl.iter f per

  (* The per-routine counter tables, keyed by edge id or by path. *)
  module Counts (H : Hashtbl.S) = struct
    let table tbl name =
      match Hashtbl.find_opt tbl name with
      | Some per -> per
      | None ->
          let per = H.create 17 in
          Hashtbl.replace tbl name per;
          per

    (* Every unit of incoming count mass either lands in the table or
       is accounted in [lost]. *)
    let add_count t per key count =
      let prev = Option.value ~default:0 (H.find_opt per key) in
      if prev > max_int - count then begin
        t.lost <- sat_add t.lost (count - (max_int - prev));
        t.diags_rev <-
          Diagnostic.errorf ~severity:Diagnostic.Warning Saturated
            "merged counter clamped at max_int; excess recorded as lost"
          :: t.diags_rev;
        H.replace per key max_int
      end
      else H.replace per key (prev + count)

    let mass tbl =
      Hashtbl.fold (fun _ per acc -> H.fold (fun _ c acc -> sat_add acc c) per acc) tbl 0

    (* [f per' k c] for every counter of [src], [per'] being the table
       of the routine's new [name] in [dst]. *)
    let move ~name src dst f =
      Hashtbl.iter
        (fun n per ->
          let per' = table dst (name n) in
          H.iter (fun k c -> f per' k c) per)
        src

    (* Nonzero counters in canonical (sorted) order. *)
    let entries per =
      H.fold (fun k c acc -> if c > 0 then (k, c) :: acc else acc) per []
      |> List.sort compare
  end

  module E = Counts (Int_tbl)
  module P = Counts (Path.Tbl)

  let mass t = sat_add (E.mass t.edges) (P.mass t.paths)

  let of_program ?(scale = 1) ?edges ?paths (p : Ir.program) =
    (* [scale] recovers sampled collections: every count is multiplied by
       the inverse sampling rate (saturating at max_int) so the dump
       holds full-run estimates and merges uniformly with unsampled
       dumps. *)
    let scaled c =
      if scale <= 1 || c <= 0 then c
      else if c > max_int / scale then max_int
      else c * scale
    in
    let t = create () in
    List.iter
      (fun (r : Ir.routine) ->
        Hashtbl.replace t.descs r.Ir.name (Stale_match.describe r);
        (match edges with
        | None -> ()
        | Some prog ->
            let ep = Edge_profile.routine prog r.Ir.name in
            if Edge_profile.total ep > 0 then begin
              let per = E.table t.edges r.Ir.name in
              let view = Cfg_view.of_routine r in
              Graph.iter_edges (Cfg_view.graph view) (fun e ->
                  let c = Edge_profile.freq ep e in
                  if c > 0 then Int_tbl.replace per e (scaled c))
            end);
        match paths with
        | None -> ()
        | Some prog ->
            let qp = Path_profile.routine prog r.Ir.name in
            if Path_profile.num_distinct qp > 0 then begin
              let per = P.table t.paths r.Ir.name in
              Path_profile.iter qp (fun path n ->
                  if n > 0 then Path.Tbl.replace per path (scaled n))
            end)
      p.routines;
    t

  let parse text =
    let t = create () in
    let routine = ref None in
    let desc_of name = Hashtbl.find_opt t.descs name in
    let nedges name =
      match desc_of name with
      | Some d -> Some (Array.length d.Stale_match.edges)
      | None -> None
    in
    let sink =
      {
        on_desc = (fun name d -> Hashtbl.replace t.descs name d);
        on_section = (fun _ -> routine := None);
        on_routine = (fun ~lineno:_ name -> routine := Some name);
        on_edge =
          (fun ~lineno ~token ~id ~count ->
            match !routine with
            | None -> ()
            | Some name ->
                if count < 0 then
                  t.diags_rev <-
                    Diagnostic.errorf ~line:lineno ~token Corrupt
                      "negative edge counter"
                    :: t.diags_rev
                else if
                  id < 0
                  || (match nedges name with Some n -> id >= n | None -> false)
                then begin
                  t.diags_rev <-
                    Diagnostic.errorf ~line:lineno ~token ~routine:name Corrupt
                      "edge id %d out of range" id
                    :: t.diags_rev;
                  t.lost <- sat_add t.lost count
                end
                else E.add_count t (E.table t.edges name) id count);
        on_path =
          (fun ~lineno ~token ~path ~count ->
            match !routine with
            | None -> ()
            | Some name ->
                if count < 0 || path = [] then
                  t.diags_rev <-
                    Diagnostic.errorf ~line:lineno ~token Corrupt
                      "malformed path counter"
                    :: t.diags_rev
                else if
                  List.exists
                    (fun e ->
                      e < 0
                      ||
                      match nedges name with Some n -> e >= n | None -> false)
                    path
                then begin
                  t.diags_rev <-
                    Diagnostic.errorf ~line:lineno ~token ~routine:name Corrupt
                      "path mentions an edge id out of range"
                    :: t.diags_rev;
                  t.lost <- sat_add t.lost count
                end
                else P.add_count t (P.table t.paths name) path count);
        on_diag = (fun d -> t.diags_rev <- d :: t.diags_rev);
      }
    in
    parse_text sink text;
    t

  let rename f t =
    let out = create () in
    out.diags_rev <- t.diags_rev;
    out.lost <- t.lost;
    Hashtbl.iter (fun name d -> Hashtbl.replace out.descs (f name) d) t.descs;
    E.move ~name:f t.edges out.edges (E.add_count out);
    P.move ~name:f t.paths out.paths (P.add_count out);
    out

  (* A salvaged path must still be a path: consecutive mapped edges have
     to chain head-to-tail in the reference CFG. *)
  let path_is_connected (nd : Stale_match.cfg_desc) path =
    let n = List.length path in
    let ok = ref true in
    List.iteri
      (fun i e ->
        if !ok then
          let _, dst = nd.Stale_match.edges.(e) in
          if i < n - 1 then begin
            let src', _ = nd.Stale_match.edges.(List.nth path (i + 1)) in
            if dst <> src' then ok := false
          end)
      path;
    !ok

  (* How counts recorded by [input] for [name] translate onto the merged
     reference CFG. *)
  type remap =
    | Pass of Stale_match.cfg_desc option  (** same CFG (or none known) *)
    | Salvage of Stale_match.cfg_desc * Stale_match.result

  let merge inputs =
    let out = create () in
    (* The reference description per routine: the least (by structural
       comparison) of all the descriptions the inputs carry, so the
       choice — hence the merged dump — is independent of input order. *)
    List.iter
      (fun input ->
        Hashtbl.iter
          (fun name d ->
            match Hashtbl.find_opt out.descs name with
            | None -> Hashtbl.replace out.descs name d
            | Some d0 -> if compare d d0 < 0 then Hashtbl.replace out.descs name d)
          input.descs)
      inputs;
    List.iter
      (fun input ->
        out.diags_rev <- input.diags_rev @ out.diags_rev;
        out.lost <- sat_add out.lost input.lost;
        let remaps : (string, remap) Hashtbl.t = Hashtbl.create 17 in
        let remap_of name =
          match Hashtbl.find_opt remaps name with
          | Some r -> r
          | None ->
              let r =
                match
                  (Hashtbl.find_opt input.descs name,
                   Hashtbl.find_opt out.descs name)
                with
                | None, rd -> Pass rd
                | Some d, Some rd
                  when d.Stale_match.fingerprint = rd.Stale_match.fingerprint
                  ->
                    Pass (Some rd)
                | Some d, Some rd ->
                    let m = Stale_match.match_cfgs ~old_desc:d ~new_desc:rd in
                    out.diags_rev <-
                      Diagnostic.errorf ~severity:Diagnostic.Warning
                        ~routine:name Stale
                        "shard CFG fingerprint disagrees with the merge \
                         reference; matched %d/%d blocks and %d/%d edges by \
                         stable hashes"
                        m.Stale_match.matched_blocks
                        (Array.length d.Stale_match.strict)
                        m.Stale_match.matched_edges
                        (Array.length d.Stale_match.edges)
                      :: out.diags_rev;
                    Salvage (rd, m)
                | Some d, None ->
                    (* cannot happen: out.descs is a superset *)
                    Pass (Some d)
              in
              Hashtbl.replace remaps name r;
              r
        in
        let in_range rd id =
          id >= 0 && id < Array.length rd.Stale_match.edges
        in
        Hashtbl.iter
          (fun name per ->
            let dst = E.table out.edges name in
            Int_tbl.iter
              (fun id c ->
                match remap_of name with
                | Pass None -> E.add_count out dst id c
                | Pass (Some rd) ->
                    if in_range rd id then E.add_count out dst id c
                    else out.lost <- sat_add out.lost c
                | Salvage (_, m) -> (
                    match Stale_match.map_edge m id with
                    | Some nid -> E.add_count out dst nid c
                    | None -> out.lost <- sat_add out.lost c))
              per)
          input.edges;
        Hashtbl.iter
          (fun name per ->
            let dst = P.table out.paths name in
            Path.Tbl.iter
              (fun path c ->
                match remap_of name with
                | Pass None -> P.add_count out dst path c
                | Pass (Some rd) ->
                    if List.for_all (in_range rd) path then
                      P.add_count out dst path c
                    else out.lost <- sat_add out.lost c
                | Salvage (rd, m) -> (
                    let mapped = List.map (Stale_match.map_edge m) path in
                    match
                      if List.for_all Option.is_some mapped then
                        Some (List.map Option.get mapped)
                      else None
                    with
                    | Some new_path when path_is_connected rd new_path ->
                        P.add_count out dst new_path c
                    | _ -> out.lost <- sat_add out.lost c))
              per)
          input.paths)
      inputs;
    out

  (* Exponential age-decayed merge: input i of n (oldest first) is
     weighted decay^(n-1-i), so generation k-1 blends into k with its
     influence fading geometrically. Implemented as a pure pre-scale of
     each input followed by the commutative [merge] above — so stale
     inputs are still salvaged through Stale_match, and the result is
     independent of how the (already-ordered) inputs were produced.
     Each count keeps floor(c * w); the decayed-away remainder goes to
     the lost-mass ledger, so mass + lost is conserved exactly (up to
     saturation), and total mass never inflates. *)
  let scale_weight w t =
    if w >= 1.0 then t
    else begin
      let out = create () in
      Hashtbl.iter (fun n d -> Hashtbl.replace out.descs n d) t.descs;
      out.diags_rev <- t.diags_rev;
      out.lost <- t.lost;
      let scaled add per' k c =
        let kept = int_of_float (float_of_int c *. w) in
        let kept = if kept < 0 then 0 else if kept > c then c else kept in
        if kept > 0 then add out per' k kept;
        out.lost <- sat_add out.lost (c - kept)
      in
      E.move ~name:Fun.id t.edges out.edges (scaled E.add_count);
      P.move ~name:Fun.id t.paths out.paths (scaled P.add_count);
      out
    end

  let merge_decayed ~decay inputs =
    if not (decay > 0.0 && decay <= 1.0) then
      invalid_arg "Raw.merge_decayed: decay must be in (0, 1]";
    let n = List.length inputs in
    merge
      (List.mapi
         (fun i t -> scale_weight (decay ** float_of_int (n - 1 - i)) t)
         inputs)

  (* {3 Canonical writer} *)

  let sorted_keys tbl =
    Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

  let save ppf t =
    Format.fprintf ppf "ppp-profile v2@.";
    List.iter
      (fun name ->
        let d = Hashtbl.find t.descs name in
        Format.fprintf ppf "cfg routine=%s fp=%s blocks=%d edges=%d@." name
          (Fingerprint.to_hex d.Stale_match.fingerprint)
          (Array.length d.Stale_match.strict)
          (Array.length d.Stale_match.edges);
        Array.iteri
          (fun i lbl ->
            Format.fprintf ppf "b %s %s %s@." lbl
              (Fingerprint.to_hex d.Stale_match.strict.(i))
              (Fingerprint.to_hex d.Stale_match.loose.(i)))
          d.Stale_match.labels;
        Array.iteri
          (fun i (s, dst) -> Format.fprintf ppf "e %d %d %d@." i s dst)
          d.Stale_match.edges)
      (sorted_keys t.descs);
    let lines_of tbl entries render =
      List.concat_map
        (fun name ->
          let entries = entries (Hashtbl.find tbl name) in
          if entries = [] then []
          else
            Printf.sprintf "routine %s" name
            :: List.map (fun (k, c) -> render k c) entries)
        (sorted_keys tbl)
    in
    let section name lines =
      Format.fprintf ppf "section %s crc=%s lines=%d@." name
        (Crc.to_hex (crc_lines lines))
        (List.length lines);
      List.iter (fun l -> Format.fprintf ppf "%s@." l) lines
    in
    section "edges"
      (lines_of t.edges E.entries (fun id c -> Printf.sprintf "e%d %d" id c));
    section "paths"
      (lines_of t.paths P.entries (fun path c ->
           Printf.sprintf "%d :%s" c
             (String.concat ""
                (List.map (fun e -> " " ^ string_of_int e) path))));
    Format.fprintf ppf "end@."

  let to_string t =
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    save ppf t;
    Format.pp_print_flush ppf ();
    Buffer.contents buf

  let save_file ~path t = Ppp_obs.Sink.write_atomic ~path (to_string t)
end

let save ?edges ?paths ppf (p : Ir.program) =
  Raw.save ppf (Raw.of_program ?edges ?paths p)

let save_file ?edges ?paths ~path (p : Ir.program) =
  Raw.save_file ~path (Raw.of_program ?edges ?paths p)

(* {2 The program-based loader} *)

type loaded = {
  edges : Edge_profile.program;
  paths : Path_profile.program;
  diagnostics : Diagnostic.t list;
  matched_fraction : float;
  stale_routines : int;
  salvaged_counts : int;
  dropped_counts : int;
}

(* How counts recorded for a routine relate to the program loading them. *)
type status =
  | Exact of Stale_match.cfg_desc  (** current description, for range checks *)
  | Salvage of Stale_match.cfg_desc * Stale_match.result
      (** stale: current description + old-id -> new-id match *)
  | Unknown

type loader = {
  program : Ir.program;
  l_edges : Edge_profile.program;
  l_paths : Path_profile.program;
  mutable diags_rev : Diagnostic.t list;
  mutable routine : (string * status) option;
  mutable applied : int;
  mutable dropped : int;
  mutable stale : int;
  descs : (string, Stale_match.cfg_desc) Hashtbl.t;  (* current program, memoized *)
  old_descs : (string, Stale_match.cfg_desc) Hashtbl.t;  (* from v2 cfg headers *)
  statuses : (string, status) Hashtbl.t;
}

let make_loader (p : Ir.program) =
  {
    program = p;
    l_edges = Edge_profile.create_program p;
    l_paths = Path_profile.create_program p;
    diags_rev = [];
    routine = None;
    applied = 0;
    dropped = 0;
    stale = 0;
    descs = Hashtbl.create 17;
    old_descs = Hashtbl.create 17;
    statuses = Hashtbl.create 17;
  }

let ldiag ld d = ld.diags_rev <- d :: ld.diags_rev

let desc_of ld (r : Ir.routine) =
  match Hashtbl.find_opt ld.descs r.Ir.name with
  | Some d -> d
  | None ->
      let d = Stale_match.describe r in
      Hashtbl.replace ld.descs r.Ir.name d;
      d

(* Resolve (and memoize) how to treat counts recorded for [name]; emits
   the Unknown_routine / Stale diagnostic the first time. *)
let resolve_status ld ~lineno name =
  match Hashtbl.find_opt ld.statuses name with
  | Some s -> s
  | None ->
      let s =
        match Ir.find_routine ld.program name with
        | None ->
            ldiag ld
              (Diagnostic.errorf ~line:lineno ~token:name ~routine:name
                 Unknown_routine "no such routine in this program");
            Unknown
        | Some r -> (
            let nd = desc_of ld r in
            match Hashtbl.find_opt ld.old_descs name with
            | Some od when od.Stale_match.fingerprint <> nd.Stale_match.fingerprint
              ->
                let m = Stale_match.match_cfgs ~old_desc:od ~new_desc:nd in
                ld.stale <- ld.stale + 1;
                ldiag ld
                  (Diagnostic.errorf ~severity:Diagnostic.Warning ~routine:name
                     Stale
                     "CFG fingerprint mismatch; matched %d/%d blocks and %d/%d \
                      edges by stable hashes"
                     m.Stale_match.matched_blocks
                     (Array.length od.Stale_match.strict)
                     m.Stale_match.matched_edges
                     (Array.length od.Stale_match.edges));
                Salvage (nd, m)
            | Some _ | None -> Exact nd)
      in
      Hashtbl.replace ld.statuses name s;
      s

let apply_edge ld ~lineno ~token status id count =
  if count < 0 then begin
    ldiag ld
      (Diagnostic.errorf ~line:lineno ~token Corrupt "negative edge counter");
    ld.dropped <- ld.dropped + 1
  end
  else
    match status with
    | Unknown -> ld.dropped <- ld.dropped + count
    | Exact nd ->
        if id >= 0 && id < Array.length nd.Stale_match.edges then begin
          (match ld.routine with
          | Some (name, _) ->
              Edge_profile.add (Edge_profile.routine ld.l_edges name) id count
          | None -> ());
          ld.applied <- ld.applied + count
        end
        else begin
          ldiag ld
            (Diagnostic.errorf ~line:lineno ~token Corrupt
               "edge id %d out of range (routine has %d edges)" id
               (Array.length nd.Stale_match.edges));
          ld.dropped <- ld.dropped + count
        end
    | Salvage (_, m) -> (
        match Stale_match.map_edge m id with
        | Some nid ->
            (match ld.routine with
            | Some (name, _) ->
                Edge_profile.add (Edge_profile.routine ld.l_edges name) nid count
            | None -> ());
            ld.applied <- ld.applied + count
        | None -> ld.dropped <- ld.dropped + count)

let apply_path ld ~lineno ~token status path count =
  if count < 0 || path = [] then begin
    ldiag ld
      (Diagnostic.errorf ~line:lineno ~token Corrupt "malformed path counter");
    ld.dropped <- ld.dropped + max 0 count
  end
  else
    match status with
    | Unknown -> ld.dropped <- ld.dropped + count
    | Exact nd ->
        if
          List.for_all
            (fun e -> e >= 0 && e < Array.length nd.Stale_match.edges)
            path
        then begin
          (match ld.routine with
          | Some (name, _) ->
              Path_profile.add (Path_profile.routine ld.l_paths name) path count
          | None -> ());
          ld.applied <- ld.applied + count
        end
        else begin
          ldiag ld
            (Diagnostic.errorf ~line:lineno ~token Corrupt
               "path mentions an edge id out of range");
          ld.dropped <- ld.dropped + count
        end
    | Salvage (nd, m) -> (
        let mapped = List.map (Stale_match.map_edge m) path in
        match
          if List.for_all Option.is_some mapped then
            Some (List.map Option.get mapped)
          else None
        with
        | Some new_path when Raw.path_is_connected nd new_path ->
            (match ld.routine with
            | Some (name, _) ->
                Path_profile.add (Path_profile.routine ld.l_paths name) new_path
                  count
            | None -> ());
            ld.applied <- ld.applied + count
        | _ -> ld.dropped <- ld.dropped + count)

let load (p : Ir.program) text =
  let ld = make_loader p in
  let status () = match ld.routine with Some (_, s) -> Some s | None -> None in
  let sink =
    {
      on_desc = (fun name d -> Hashtbl.replace ld.old_descs name d);
      on_section = (fun _ -> ld.routine <- None);
      on_routine =
        (fun ~lineno name ->
          ld.routine <- Some (name, resolve_status ld ~lineno name));
      on_edge =
        (fun ~lineno ~token ~id ~count ->
          match status () with
          | Some s -> apply_edge ld ~lineno ~token s id count
          | None -> ());
      on_path =
        (fun ~lineno ~token ~path ~count ->
          match status () with
          | Some s -> apply_path ld ~lineno ~token s path count
          | None -> ());
      on_diag = (fun d -> ldiag ld d);
    }
  in
  parse_text sink text;
  let total = ld.applied + ld.dropped in
  let matched_fraction =
    if total = 0 then 1.0 else float_of_int ld.applied /. float_of_int total
  in
  Obs.set g_matched matched_fraction;
  Obs.add m_salvaged ld.applied;
  Obs.add m_dropped ld.dropped;
  Obs.add m_stale ld.stale;
  let diagnostics = List.rev ld.diags_rev in
  if ld.applied = 0 && Diagnostic.count_errors diagnostics > 0 then
    Error diagnostics
  else
    Ok
      {
        edges = ld.l_edges;
        paths = ld.l_paths;
        diagnostics;
        matched_fraction;
        stale_routines = ld.stale;
        salvaged_counts = ld.applied;
        dropped_counts = ld.dropped;
      }
