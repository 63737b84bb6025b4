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

(* The CRC-32 of [lines] joined by newlines (a section's payload),
   without building the joined text. *)
let crc_lines = function
  | [] -> Crc.string ""
  | l :: rest ->
      List.fold_left (fun c l -> Crc.update (Crc.update c "\n") l) (Crc.string l) rest

(* Saturating addition of non-negative counts. *)
let sat_add a b = if a > max_int - b then max_int else a + b

(* {2 The salvage rule}

   How counts a dump recorded against its description of a routine's CFG
   ([from]) land on another description of the same routine ([onto]):
   the routine as compiled now when loading, the merge reference when
   merging. With equal fingerprints, or no recorded description, a
   counter keeps its ids if [onto] has them (a merge may have no [onto]
   to check against). Otherwise every edge re-maps through
   {!Stale_match}, and a path survives only if all its edges map and
   still chain head to tail. Counts that do not land are the caller's
   dropped mass. *)

type remap = {
  edge : int -> int option;
  path : int list -> int list option;
  stale : Diagnostic.t option;  (** the warning, when the CFGs differ *)
}

let rec path_is_connected (nd : Stale_match.cfg_desc) = function
  | a :: (b :: _ as rest) ->
      snd nd.edges.(a) = fst nd.edges.(b) && path_is_connected nd rest
  | _ -> true

let remap name ~(from : Stale_match.cfg_desc option)
    ~(onto : Stale_match.cfg_desc option) =
  match (from, onto) with
  | Some od, Some nd when od.fingerprint <> nd.fingerprint ->
      let m = Stale_match.match_cfgs ~old_desc:od ~new_desc:nd in
      let edge = Stale_match.map_edge m in
      let path p =
        let mapped = List.map edge p in
        if List.for_all Option.is_some mapped then
          let p = List.map Option.get mapped in
          if path_is_connected nd p then Some p else None
        else None
      in
      {
        edge;
        path;
        stale =
          Some
            (Diagnostic.errorf ~severity:Diagnostic.Warning ~routine:name Stale
               "CFG fingerprint mismatch; matched %d/%d blocks and %d/%d edges \
                by stable hashes"
               m.Stale_match.matched_blocks (Array.length od.strict)
               m.Stale_match.matched_edges (Array.length od.edges));
      }
  | _ ->
      let exists id =
        match onto with
        | None -> true
        | Some nd -> id >= 0 && id < Array.length nd.edges
      in
      {
        edge = (fun id -> if exists id then Some id else None);
        path = (fun p -> if List.for_all exists p then Some p else None);
        stale = None;
      }

(* {2 Raw dumps: the program-free merge layer} *)

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
  module Counts
      (H : Hashtbl.S)
      (K : sig
        val compare : H.key -> H.key -> int
      end) =
  struct
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

    (* [f n per' k c] for every counter of [src]'s routine [n], [per']
       being the table of the routine's new [name n] in [dst]. *)
    let move ~name src dst f =
      Hashtbl.iter
        (fun n per ->
          let per' = table dst (name n) in
          H.iter (fun k c -> f n per' k c) per)
        src

    (* Nonzero counters in canonical (sorted) order: keys are unique, so
       their order alone decides. *)
    let entries per =
      H.fold (fun k c acc -> if c > 0 then (k, c) :: acc else acc) per []
      |> List.sort (fun (a, _) (b, _) -> K.compare a b)
  end

  module E = Counts (Int_tbl) (Int)
  module P = Counts (Path.Tbl) (Path)

  let mass t = sat_add (E.mass t.edges) (P.mass t.paths)

  let of_program ?edges ?paths (p : Ir.program) =
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
                  if c > 0 then Int_tbl.replace per e c)
            end);
        match paths with
        | None -> ()
        | Some prog ->
            let qp = Path_profile.routine prog r.Ir.name in
            if Path_profile.num_distinct qp > 0 then begin
              let per = P.table t.paths r.Ir.name in
              Path_profile.iter qp (fun path n ->
                  if n > 0 then Path.Tbl.replace per path n)
            end)
      p.routines;
    t

  (* {3 The v2 reader}

     The only reader of the text. One walker reads the envelope (format
     header, cfg descriptions, checksummed sections, end marker) straight
     into a [t]: the dump's own CFG descriptions and counter tables, each
     counter range-checked against the description of its routine when
     the dump carries one. Every structural problem (malformed lines,
     checksum mismatches, truncation, impossible ids, saturation) is
     diagnosed here, once. What the counts mean for a program is the
     salvage rule's business, shared by {!merge} and {!load}. *)

  type reader = {
    raw : t;
    mutable section : [ `Edges | `Paths ];
    mutable routine : string option;  (** set by the section's [routine] header *)
    headers : (string, int) Hashtbl.t;  (** routine -> line of its first header *)
  }

  let diag rd d = rd.raw.diags_rev <- d :: rd.raw.diags_rev

  let drop rd count d =
    diag rd d;
    rd.raw.lost <- sat_add rd.raw.lost count

  let in_desc rd name id =
    id >= 0
    &&
    match Hashtbl.find_opt rd.raw.descs name with
    | Some d -> id < Array.length d.Stale_match.edges
    | None -> true

  (* One line of a section's payload. *)
  let payload_line rd ~lineno raw =
    let line = String.trim raw in
    if line = "" || line.[0] = '#' then ()
    else
      let corrupt ?(token = first_token line) msg =
        diag rd (Diagnostic.make ~line:lineno ~token Corrupt msg)
      in
      match (split_tokens line, rd.routine, rd.section) with
      | [ "routine"; name ], _, _ ->
          rd.routine <- Some name;
          if not (Hashtbl.mem rd.headers name) then
            Hashtbl.replace rd.headers name lineno
      | _, None, _ -> corrupt "counter before any 'routine' header"
      | [ e; c ], Some name, `Edges when String.length e > 1 && e.[0] = 'e' -> (
          match
            ( int_of_string_opt (String.sub e 1 (String.length e - 1)),
              int_of_string_opt c )
          with
          | Some _, Some count when count < 0 ->
              corrupt ~token:e "negative edge counter"
          | Some id, Some count when in_desc rd name id ->
              E.add_count rd.raw (E.table rd.raw.edges name) id count
          | Some id, Some count ->
              drop rd count
                (Diagnostic.errorf ~line:lineno ~token:e ~routine:name Corrupt
                   "edge id %d out of range" id)
          | _ -> corrupt ~token:e "malformed edge counter")
      | _, Some _, `Edges -> corrupt "expected 'e<ID> <count>'"
      | count :: ":" :: rest, Some name, `Paths -> (
          match (int_of_string_opt count, List.map int_of_string_opt rest) with
          | Some c, (_ :: _ as ids) when c >= 0 && List.for_all Option.is_some ids
            ->
              let path = List.map Option.get ids in
              if List.for_all (in_desc rd name) path then
                P.add_count rd.raw (P.table rd.raw.paths name) path c
              else
                drop rd c
                  (Diagnostic.errorf ~line:lineno ~token:count ~routine:name
                     Corrupt "path mentions an edge id out of range")
          | _ -> corrupt ~token:count "malformed path counter")
      | _, Some _, `Paths -> corrupt "expected '<count> : <edges>'"

  let parse_cfg_header rd lines i lineno line =
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
                    diag rd
                      (Diagnostic.errorf ~line:ln ~token:lbl ~routine:name
                         Corrupt "malformed block hash"))
            | _ ->
                diag rd
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
                    diag rd
                      (Diagnostic.errorf ~line:ln ~token:id ~routine:name
                         Corrupt "malformed 'e' line in cfg header"))
            | _ ->
                diag rd
                  (Diagnostic.errorf ~line:ln ~routine:name Corrupt
                     "malformed 'e' line in cfg header"));
            incr want_e;
            incr i
          end
          else begin
            diag rd
              (Diagnostic.errorf ~line:ln ~token:(first_token l) ~routine:name
                 Corrupt "cfg header for %s is incomplete" name);
            ok := false
          end
        done;
        if !ok && (!want_b < nblocks || !want_e < nedges) then
          diag rd
            (Diagnostic.errorf ~routine:name Truncated
               "cfg header for %s ends before its declared %d blocks / %d edges"
               name nblocks nedges);
        Hashtbl.replace rd.raw.descs name
          { Stale_match.fingerprint = fp; labels; strict; loose; edges }
    | _ ->
        diag rd
          (Diagnostic.errorf ~line:lineno ~token:(first_token line) Corrupt
             "malformed cfg header")

  let parse_section rd lines i lineno line =
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
        rd.section <- kind;
        rd.routine <- None;
        let n = Array.length lines in
        let available = min k (n - !i) in
        if available < k then
          diag rd
            (Diagnostic.errorf ~line:lineno Truncated
               "section declares %d payload lines but only %d remain" k
               (max 0 available));
        let payload = Array.sub lines !i (max 0 available) in
        let start = !i in
        i := !i + max 0 available;
        if available = k && crc_lines (Array.to_list payload) <> crc then
          diag rd
            (Diagnostic.errorf ~line:lineno Corrupt
               "checksum mismatch in %s section"
               (match kind with `Edges -> "edges" | `Paths -> "paths"));
        Array.iteri
          (fun j raw -> payload_line rd ~lineno:(start + j + 1) raw)
          payload
    | _ ->
        diag rd
          (Diagnostic.errorf ~line:lineno ~token:(first_token line) Corrupt
             "malformed section header")

  (* Everything after the format header, from line index [start]. *)
  let parse_v2 rd lines start =
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
        diag rd
          (Diagnostic.errorf ~line:lineno ~token:(first_token line) Corrupt
             "content after 'end' marker");
        stop := true
      end
      else if starts_with "cfg " line then parse_cfg_header rd lines i lineno line
      else if starts_with "section " line then parse_section rd lines i lineno line
      else if line = "end" then seen_end := true
      else
        diag rd
          (Diagnostic.errorf ~line:lineno ~token:(first_token line) Corrupt
             "unexpected line")
    done;
    if not !seen_end then
      diag rd (Diagnostic.errorf Truncated "dump ends without the 'end' marker")

  (* The dump, plus every routine that has a [routine] header with the
     line of its first one, in line order. The format header may follow
     blank or comment lines; text without one gets a single diagnostic
     at its first other line. *)
  let parse_with_headers text =
    let rd =
      {
        raw = create ();
        section = `Edges;
        routine = None;
        headers = Hashtbl.create 17;
      }
    in
    let lines = Array.of_list (String.split_on_char '\n' text) in
    let n = Array.length lines in
    let rec header i =
      let line = if i < n then String.trim lines.(i) else "" in
      if i < n && (line = "" || line.[0] = '#') then header (i + 1)
      else if line = "ppp-profile v2" then parse_v2 rd lines (i + 1)
      else
        diag rd
          (Diagnostic.errorf ~line:(min (i + 1) n)
             ?token:(if line = "" then None else Some (first_token line))
             Corrupt "expected the 'ppp-profile v2' header")
    in
    header 0;
    ( rd.raw,
      Hashtbl.fold (fun name line acc -> (name, line) :: acc) rd.headers []
      |> List.sort (fun (_, a) (_, b) -> Int.compare a b) )

  let parse text = fst (parse_with_headers text)

  let rename f t =
    let out = create () in
    out.diags_rev <- t.diags_rev;
    out.lost <- t.lost;
    Hashtbl.iter (fun name d -> Hashtbl.replace out.descs (f name) d) t.descs;
    E.move ~name:f t.edges out.edges (fun _ -> E.add_count out);
    P.move ~name:f t.paths out.paths (fun _ -> P.add_count out);
    out

  (* Add [input]'s counts, lost mass and diagnostics to [out], each
     routine moved through the salvage rule onto [out]'s description of
     it. The rule is resolved at a routine's first counter, so a routine
     with no counts left (all decayed away) reports no Stale warning. *)
  let absorb out input =
    out.diags_rev <- input.diags_rev @ out.diags_rev;
    out.lost <- sat_add out.lost input.lost;
    let remaps = Hashtbl.create 17 in
    let remap_of name =
      match Hashtbl.find_opt remaps name with
      | Some r -> r
      | None ->
          let r =
            remap name
              ~from:(Hashtbl.find_opt input.descs name)
              ~onto:(Hashtbl.find_opt out.descs name)
          in
          Option.iter (fun d -> out.diags_rev <- d :: out.diags_rev) r.stale;
          Hashtbl.replace remaps name r;
          r
    in
    let through map add name per k c =
      match map (remap_of name) k with
      | Some k -> add out per k c
      | None -> out.lost <- sat_add out.lost c
    in
    E.move ~name:Fun.id input.edges out.edges
      (through (fun r -> r.edge) E.add_count);
    P.move ~name:Fun.id input.paths out.paths
      (through (fun r -> r.path) P.add_count)

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
    List.iter (absorb out) inputs;
    out

  (* [reference]'s descriptions win; a routine it does not describe
     keeps [t]'s. *)
  let onto ~reference t =
    let out = create () in
    Hashtbl.iter (Hashtbl.replace out.descs) t.descs;
    Hashtbl.iter (Hashtbl.replace out.descs) reference.descs;
    absorb out t;
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
      let scaled add _ per' k c =
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

  (* {3 Canonical writer}

     Every line is rendered once, with no formatter in between: the cfg
     descriptions straight into the dump's buffer, and each section's
     body into its own string first, so that the section header can
     carry the body's CRC and line count. *)

  let sorted_keys tbl =
    Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

  let add_int b n = Buffer.add_string b (string_of_int n)

  (* A section's lines, each ending in a newline: a [routine] line for
     every routine with a nonzero counter, then its counters. *)
  let section_body tbl entries ~bytes_per_entry render =
    let per =
      List.filter_map
        (fun name ->
          match entries (Hashtbl.find tbl name) with
          | [] -> None
          | es -> Some (name, es))
        (sorted_keys tbl)
    in
    let lines = List.fold_left (fun n (_, es) -> n + 1 + List.length es) 0 per in
    let b = Buffer.create (16 + (bytes_per_entry * lines)) in
    List.iter
      (fun (name, es) ->
        Buffer.add_string b "routine ";
        Buffer.add_string b name;
        Buffer.add_char b '\n';
        List.iter
          (fun (k, c) ->
            render b k c;
            Buffer.add_char b '\n')
          es)
      per;
    (Buffer.contents b, lines)

  (* The CRC covers the lines joined by newlines: the body without its
     last newline. *)
  let add_section out name (body, lines) =
    Buffer.add_string out "section ";
    Buffer.add_string out name;
    Buffer.add_string out " crc=";
    Buffer.add_string out
      (Crc.to_hex (Crc.substring body 0 (max 0 (String.length body - 1))));
    Buffer.add_string out " lines=";
    add_int out lines;
    Buffer.add_char out '\n';
    Buffer.add_string out body

  let to_string t =
    let edges =
      section_body t.edges E.entries ~bytes_per_entry:12 (fun b id c ->
          Buffer.add_char b 'e';
          add_int b id;
          Buffer.add_char b ' ';
          add_int b c)
    in
    let paths =
      section_body t.paths P.entries ~bytes_per_entry:48 (fun b path c ->
          add_int b c;
          Buffer.add_string b " :";
          List.iter
            (fun e ->
              Buffer.add_char b ' ';
              add_int b e)
            path)
    in
    let names = sorted_keys t.descs in
    let descs_bytes =
      List.fold_left
        (fun n name ->
          let d = Hashtbl.find t.descs name in
          n + 64 + (48 * Array.length d.Stale_match.labels)
          + (16 * Array.length d.Stale_match.edges))
        0 names
    in
    let out =
      Buffer.create
        (128 + descs_bytes + String.length (fst edges) + String.length (fst paths))
    in
    Buffer.add_string out "ppp-profile v2\n";
    List.iter
      (fun name ->
        let d = Hashtbl.find t.descs name in
        Buffer.add_string out "cfg routine=";
        Buffer.add_string out name;
        Buffer.add_string out " fp=";
        Buffer.add_string out (Fingerprint.to_hex d.Stale_match.fingerprint);
        Buffer.add_string out " blocks=";
        add_int out (Array.length d.Stale_match.strict);
        Buffer.add_string out " edges=";
        add_int out (Array.length d.Stale_match.edges);
        Buffer.add_char out '\n';
        Array.iteri
          (fun i lbl ->
            Buffer.add_string out "b ";
            Buffer.add_string out lbl;
            Buffer.add_char out ' ';
            Buffer.add_string out (Fingerprint.to_hex d.Stale_match.strict.(i));
            Buffer.add_char out ' ';
            Buffer.add_string out (Fingerprint.to_hex d.Stale_match.loose.(i));
            Buffer.add_char out '\n')
          d.Stale_match.labels;
        Array.iteri
          (fun i (src, dst) ->
            Buffer.add_string out "e ";
            add_int out i;
            Buffer.add_char out ' ';
            add_int out src;
            Buffer.add_char out ' ';
            add_int out dst;
            Buffer.add_char out '\n')
          d.Stale_match.edges)
      names;
    add_section out "edges" edges;
    add_section out "paths" paths;
    Buffer.add_string out "end\n";
    Buffer.contents out

  let save ppf t =
    Format.pp_print_string ppf (to_string t);
    Format.pp_print_flush ppf ()
end

let save ?edges ?paths ppf (p : Ir.program) =
  Raw.save ppf (Raw.of_program ?edges ?paths p)

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

(* The salvage step of {!load} and {!of_raw}: move each routine of
   [routines] (with the line of its header, when it came from text) onto
   the program. A routine is described only when the dump has counts for
   it: programs carry many cold library routines that record no counts.
   [dropped] starts at the mass the parser already lost, [parse_diags]
   are the parser's. Paths are added in canonical order, so a loaded
   table iterates (and [Path_profile.hot_paths] breaks ties) the same way
   whatever order the parser met them in. *)
let apply (p : Ir.program) raw ~routines ~dropped ~parse_diags =
  let edges = Edge_profile.create_program p in
  let paths = Path_profile.create_program p in
  let verdicts_rev = ref [] in
  let applied = ref 0 and dropped = ref dropped and stale = ref 0 in
  let settle add key c =
    match key with
    | Some k ->
        add k c;
        applied := !applied + c
    | None -> dropped := !dropped + c
  in
  List.iter
    (fun (name, line) ->
      match Ir.find_routine p name with
      | None ->
          verdicts_rev :=
            Diagnostic.errorf ?line ~token:name ~routine:name Unknown_routine
              "no such routine in this program"
            :: !verdicts_rev;
          let drop _ c = dropped := !dropped + c in
          Raw.iter_edges raw name drop;
          Raw.iter_paths raw name drop
      | Some r ->
          let m =
            remap name ~from:(Raw.desc raw name)
              ~onto:(Some (Stale_match.describe r))
          in
          Option.iter
            (fun d ->
              incr stale;
              verdicts_rev := d :: !verdicts_rev)
            m.stale;
          let ep = Edge_profile.routine edges name in
          Raw.iter_edges raw name (fun id c ->
              settle (Edge_profile.add ep) (m.edge id) c);
          let pp = Path_profile.routine paths name in
          Option.iter
            (fun per ->
              List.iter
                (fun (path, c) -> settle (Path_profile.add pp) (m.path path) c)
                (Raw.P.entries per))
            (Hashtbl.find_opt raw.Raw.paths name))
    routines;
  let applied = !applied and dropped = !dropped in
  let total = applied + dropped in
  let matched_fraction =
    if total = 0 then 1.0 else float_of_int applied /. float_of_int total
  in
  Obs.set g_matched matched_fraction;
  Obs.add m_salvaged applied;
  Obs.add m_dropped dropped;
  Obs.add m_stale !stale;
  let diagnostics = parse_diags @ List.rev !verdicts_rev in
  if applied = 0 && Diagnostic.count_errors diagnostics > 0 then
    Error diagnostics
  else
    Ok
      {
        edges;
        paths;
        diagnostics;
        matched_fraction;
        stale_routines = !stale;
        salvaged_counts = applied;
        dropped_counts = dropped;
      }

let load (p : Ir.program) text =
  let raw, headers = Raw.parse_with_headers text in
  apply p raw
    ~routines:(List.map (fun (name, line) -> (name, Some line)) headers)
    ~dropped:(Raw.lost raw) ~parse_diags:(Raw.diagnostics raw)

(* [load p (Raw.to_string raw)] without the text. The routines are those
   the text would give a [routine] header, in the order of their first
   one: those with edge counts, then those with only path counts, each by
   name. The text carries neither [raw]'s lost mass nor its diagnostics,
   so neither is read here. *)
let of_raw (p : Ir.program) raw =
  let counted tbl entries =
    Raw.sorted_keys tbl
    |> List.filter (fun name -> entries (Hashtbl.find tbl name) <> [])
  in
  let with_edges = counted raw.Raw.edges Raw.E.entries in
  let paths_only =
    counted raw.Raw.paths Raw.P.entries
    |> List.filter (fun name -> not (List.mem name with_edges))
  in
  apply p raw
    ~routines:(List.map (fun name -> (name, None)) (with_edges @ paths_only))
    ~dropped:0 ~parse_diags:[]
