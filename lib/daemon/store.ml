module Crc = Ppp_resilience.Crc
module Hex = Ppp_resilience.Hex
module Diagnostic = Ppp_resilience.Diagnostic
module Metrics = Ppp_obs.Metrics

let m_put = Metrics.counter "daemon.store.put"
let m_hit = Metrics.counter "daemon.store.hit"
let m_miss = Metrics.counter "daemon.store.miss"
let m_quarantined = Metrics.counter "daemon.store.quarantined"
let m_salvaged = Metrics.counter "daemon.store.salvaged"

type entry = { key : string; len : int; crc : int; file : string }

type t = {
  dir : string;
  objects_dir : string;
  quarantine_dir : string;
  journal_path : string;
  mutable journal_fd : Unix.file_descr option;
  index : (string * string, entry) Hashtbl.t; (* (kind, key) -> entry *)
  mutable quarantined : int;
  mutable pending : Diagnostic.t list; (* reversed *)
}

(* ---- small pure helpers ------------------------------------------------ *)

let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
             0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let crc_of s = Int32.to_int (Crc.string s) land 0xffffffff
let crc_hex s = Printf.sprintf "%08x" (crc_of s)

(* [field line key] returns the value of [ key=] in a header line. The
   tag starts with a space, so it is compared in place at each space
   only: the key's hex before [len=] and [crc=] can run to hundreds of
   kilobytes. *)
let field line key =
  let tag = " " ^ key ^ "=" in
  let tl = String.length tag and ll = String.length line in
  let rec tag_at i j = j = tl || (line.[i + j] = tag.[j] && tag_at i (j + 1)) in
  let rec scan from =
    match String.index_from_opt line from ' ' with
    | Some i when i + tl <= ll ->
        if tag_at i 0 then
          let start = i + tl in
          let stop =
            Option.value ~default:ll (String.index_from_opt line start ' ')
          in
          Some (String.sub line start (stop - start))
        else scan (i + 1)
    | _ -> None
  in
  scan 0

let safe_kind kind =
  String.length kind > 0
  && String.for_all (fun c -> (c >= 'a' && c <= 'z') || c = '_') kind

let obj_file kind key = Printf.sprintf "%s-%s.obj" kind (fnv64 key)

(* The fields an object header and its journal line share; the caller
   hex-encodes the key once for both. *)
let entry_fields ~kind ~keyhex ~len ~crc =
  Printf.sprintf "kind=%s key=%s len=%d crc=%08x" kind keyhex len crc

(* ---- never-raise filesystem wrappers ----------------------------------- *)

let io_diag ctx exn =
  Diagnostic.errorf Diagnostic.Io "%s: %s" ctx
    (match exn with
    | Unix.Unix_error (e, fn, _) -> Printf.sprintf "%s (%s)" (Unix.error_message e) fn
    | Sys_error m -> m
    | e -> Printexc.to_string e)

let mkdir_p dir =
  try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with e -> Error e

(* Atomic replacement: unique same-directory temp, full write, fsync,
   rename. EINTR on write is retried; any failure cleans the temp up and
   is reported, never raised. *)
let write_atomic_file ~path contents =
  let dir = Filename.dirname path in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".%s.tmp.%d" (Filename.basename path) (Unix.getpid ()))
  in
  try
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let b = Bytes.unsafe_of_string contents in
        let pos = ref 0 in
        while !pos < Bytes.length b do
          match Unix.write fd b !pos (Bytes.length b - !pos) with
          | n -> pos := !pos + n
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
        done;
        Unix.fsync fd);
    Unix.rename tmp path;
    Ok ()
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error (io_diag (Printf.sprintf "writing %s" path) e)

(* ---- object encoding --------------------------------------------------- *)

let encode_entry ~fields payload =
  String.concat "" [ "ppp-store v1 "; fields; "\n"; payload; "\n" ]

(* Parse and validate a whole object file. *)
let decode_entry contents =
  match String.index_opt contents '\n' with
  | None -> Error "missing header line"
  | Some nl -> (
      let line = String.sub contents 0 nl in
      if String.length line < 12 || String.sub line 0 12 <> "ppp-store v1" then
        Error "bad store magic"
      else
        match
          (field line "kind", field line "key", field line "len", field line "crc")
        with
        | Some kind, Some keyhex, Some len_s, Some crc_s -> (
            match (int_of_string_opt len_s, Hex.decode keyhex) with
            | Some len, Some key when len >= 0 ->
                let body_start = nl + 1 in
                if String.length contents < body_start + len + 1 then
                  Error "payload shorter than declared length"
                else
                  let payload = String.sub contents body_start len in
                  if crc_hex payload <> crc_s then Error "payload checksum mismatch"
                  else if not (safe_kind kind) then Error "invalid entry kind"
                  else Ok (kind, key, payload)
            | _ -> Error "unparsable header fields")
        | _ -> Error "incomplete header")

(* ---- quarantine -------------------------------------------------------- *)

(* Move an object file into quarantine/ as [name]; one that cannot be
   moved is deleted, so it is never read again. *)
let move_aside t ~file ~name =
  let src = Filename.concat t.objects_dir file in
  try Unix.rename src (Filename.concat t.quarantine_dir name)
  with Unix.Unix_error _ -> ( try Sys.remove src with Sys_error _ -> ())

let quarantine t ~file ~why =
  move_aside t ~file ~name:(Printf.sprintf "%d-%s" t.quarantined file);
  t.quarantined <- t.quarantined + 1;
  Metrics.incr m_quarantined;
  Diagnostic.errorf ~severity:Diagnostic.Warning ~token:file
    Diagnostic.Quarantined "store entry %s quarantined: %s" file why

(* ---- journal ----------------------------------------------------------- *)

let journal_line body = Printf.sprintf "%s #crc=%s" body (crc_hex body)

let journal_line_valid line =
  match String.rindex_opt line '#' with
  | Some i
    when i >= 1
         && line.[i - 1] = ' '
         && String.length line - i = String.length "#crc=XXXXXXXX" ->
      let body = String.sub line 0 (i - 1) in
      let crc = String.sub line (i + 5) 8 in
      crc_hex body = crc
  | _ -> false

(* Validate the journal; truncate a torn or corrupt tail in place. *)
let salvage_journal t =
  if not (Sys.file_exists t.journal_path) then []
  else
    match read_file t.journal_path with
    | Error e -> [ io_diag (Printf.sprintf "reading %s" t.journal_path) e ]
    | Ok contents ->
        let keep = Buffer.create (String.length contents) in
        let bad = ref 0 in
        let pos = ref 0 in
        let n = String.length contents in
        while !pos < n do
          match String.index_from_opt contents !pos '\n' with
          | None ->
              (* torn tail: no trailing newline *)
              incr bad;
              pos := n
          | Some nl ->
              let line = String.sub contents !pos (nl - !pos) in
              if journal_line_valid line then begin
                Buffer.add_string keep line;
                Buffer.add_char keep '\n'
              end
              else incr bad;
              pos := nl + 1
        done;
        if !bad = 0 then []
        else begin
          Metrics.incr m_salvaged;
          let diag =
            Diagnostic.errorf ~severity:Diagnostic.Warning Diagnostic.Truncated
              "journal salvage dropped %d torn or corrupt line%s" !bad
              (if !bad = 1 then "" else "s")
          in
          match write_atomic_file ~path:t.journal_path (Buffer.contents keep) with
          | Ok () -> [ diag ]
          | Error d -> [ diag; d ]
        end

let journal_append t body =
  let line = journal_line body ^ "\n" in
  let fd =
    match t.journal_fd with
    | Some fd -> Some fd
    | None -> (
        match
          Unix.openfile t.journal_path
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
            0o644
        with
        | fd ->
            t.journal_fd <- Some fd;
            Some fd
        | exception e ->
            t.pending <- io_diag "opening journal" e :: t.pending;
            None)
  in
  match fd with
  | None -> ()
  | Some fd -> (
      match Ppp_resilience.Robust_io.write_string fd line with
      | `Ok -> ( try Unix.fsync fd with Unix.Unix_error _ -> ())
      | `Closed | `Timeout ->
          t.pending <- Diagnostic.make Diagnostic.Io "journal append failed" :: t.pending)

(* ---- opening ----------------------------------------------------------- *)

let open_store ~dir =
  let t =
    {
      dir;
      objects_dir = Filename.concat dir "objects";
      quarantine_dir = Filename.concat dir "quarantine";
      journal_path = Filename.concat dir "journal.log";
      journal_fd = None;
      index = Hashtbl.create 64;
      quarantined = 0;
      pending = [];
    }
  in
  let diags = ref [] in
  (try
     mkdir_p dir;
     mkdir_p t.objects_dir;
     mkdir_p t.quarantine_dir
   with e -> diags := io_diag (Printf.sprintf "creating %s" dir) e :: !diags);
  (* Sweep temp files left by a crash mid-write: the rename never
     happened, so they are not entries, just disk noise. *)
  (match Sys.readdir t.objects_dir with
  | names ->
      Array.iter
        (fun name ->
          if String.length name > 0 && name.[0] = '.' then
            try Sys.remove (Filename.concat t.objects_dir name)
            with Sys_error _ -> ())
        names
  | exception Sys_error _ -> ());
  (* Directory scan is the source of truth. *)
  (match Sys.readdir t.objects_dir with
  | names ->
      Array.sort compare names;
      Array.iter
        (fun file ->
          if Filename.check_suffix file ".obj" then
            match read_file (Filename.concat t.objects_dir file) with
            | Error e ->
                diags := io_diag (Printf.sprintf "reading %s" file) e :: !diags
            | Ok contents -> (
                match decode_entry contents with
                | Ok (kind, key, payload) ->
                    Hashtbl.replace t.index (kind, key)
                      {
                        key;
                        len = String.length payload;
                        crc = crc_of payload;
                        file;
                      }
                | Error why -> diags := quarantine t ~file ~why :: !diags))
        names
  | exception Sys_error _ -> ());
  let jdiags = salvage_journal t in
  (t, List.rev !diags @ jdiags)

let keep_kinds t ~kinds =
  let others =
    Hashtbl.fold
      (fun (kind, key) e acc ->
        if List.mem kind kinds then acc else (kind, key, e.file) :: acc)
      t.index []
  in
  if others = [] then []
  else begin
    List.iter
      (fun (kind, key, file) ->
        Hashtbl.remove t.index (kind, key);
        move_aside t ~file ~name:file)
      others;
    let n = List.length others in
    [ Diagnostic.errorf ~severity:Diagnostic.Warning Diagnostic.Quarantined
        "%d store entr%s of kind %s moved to quarantine (the kinds kept are %s)"
        n
        (if n = 1 then "y" else "ies")
        (String.concat ", "
           (List.sort_uniq compare (List.map (fun (k, _, _) -> k) others)))
        (String.concat ", " kinds) ]
  end

(* ---- operations -------------------------------------------------------- *)

let put t ~kind ~key payload =
  if not (safe_kind kind) then
    Error (Diagnostic.errorf Diagnostic.Io "invalid store kind %S" kind)
  else
    let len = String.length payload and crc = crc_of payload in
    match Hashtbl.find_opt t.index (kind, key) with
    | Some e when e.len = len && e.crc = crc ->
        Ok () (* identical payload already committed *)
    | _ -> (
        let file = obj_file kind key in
        let path = Filename.concat t.objects_dir file in
        let fields = entry_fields ~kind ~keyhex:(Hex.encode key) ~len ~crc in
        match write_atomic_file ~path (encode_entry ~fields payload) with
        | Error d -> Error d
        | Ok () ->
            Hashtbl.replace t.index (kind, key) { key; len; crc; file };
            Metrics.incr m_put;
            journal_append t ("put " ^ fields);
            Ok ())

let get t ~kind ~key =
  match Hashtbl.find_opt t.index (kind, key) with
  | None ->
      Metrics.incr m_miss;
      None
  | Some e -> (
      match read_file (Filename.concat t.objects_dir e.file) with
      | Error exn ->
          Hashtbl.remove t.index (kind, key);
          t.pending <- io_diag (Printf.sprintf "reading %s" e.file) exn :: t.pending;
          Metrics.incr m_miss;
          None
      | Ok contents -> (
          match decode_entry contents with
          | Ok (k, ky, payload) when k = kind && ky = key ->
              Metrics.incr m_hit;
              Some payload
          | Ok _ ->
              Hashtbl.remove t.index (kind, key);
              t.pending <- quarantine t ~file:e.file ~why:"entry identity mismatch" :: t.pending;
              Metrics.incr m_miss;
              None
          | Error why ->
              Hashtbl.remove t.index (kind, key);
              t.pending <- quarantine t ~file:e.file ~why :: t.pending;
              Metrics.incr m_miss;
              None))

let mem t ~kind ~key = Hashtbl.mem t.index (kind, key)

let entries t =
  Hashtbl.fold (fun (kind, key) e acc -> (kind, key, e.len) :: acc) t.index []
  |> List.sort compare

let quarantined t = t.quarantined

let drain_diagnostics t =
  let ds = List.rev t.pending in
  t.pending <- [];
  ds

let close t =
  match t.journal_fd with
  | None -> ()
  | Some fd ->
      t.journal_fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let dir t = t.dir
