(* The daemon's crash-safety guarantees, tested without sleeping through
   real supervision: the wire framing rejects every corruption, the
   store salvages or quarantines any on-disk damage (never raises, never
   serves wrong bytes), a kill-9 mid-write leaves committed entries
   byte-identical on reopen, and a store entry is served only to the
   request it answered. Small end-to-end checks boot a real server
   process; the heavyweight adversarial scenarios live in [pppc chaos]. *)

module Wire = Ppp_daemon.Wire
module Store = Ppp_daemon.Store
module Ops = Ppp_daemon.Ops
module Server = Ppp_daemon.Server
module Client = Ppp_daemon.Client
module Diagnostic = Ppp_resilience.Diagnostic
module Crc = Ppp_resilience.Crc
module Hex = Ppp_resilience.Hex
module Session = Ppp_session.Session
module Jsonx = Ppp_obs.Jsonx

let tmpdir =
  let count = ref 0 in
  fun () ->
    incr count;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ppp-daemon-test-%d-%d" (Unix.getpid ()) !count)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_raw path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* {2 Wire framing} *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_wire_roundtrip () =
  with_socketpair (fun a b ->
      List.iter
        (fun payload ->
          (match Wire.write_frame a payload with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "write_frame failed");
          match Wire.read_frame b with
          | Ok got -> Alcotest.(check string) "payload round-trips" payload got
          | Error _ -> Alcotest.fail "read_frame failed")
        [ ""; "x"; "hello world"; String.make 100_000 '\xab';
          "binary\x00\x01\xff\ndata" ])

let test_wire_rejects_corruption () =
  (* Flipping any byte of a frame must yield Corrupt or Closed, never a
     wrong payload and never an exception. *)
  let payload = "the payload under test" in
  for flip = 0 to 12 + String.length payload do
    with_socketpair (fun a b ->
        (match Wire.write_frame a payload with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "write failed");
        (* Rebuild the frame bytes by reading them raw, flip one, resend. *)
        let buf = Bytes.create (13 + String.length payload) in
        let rec fill pos =
          if pos < Bytes.length buf then
            let n = Unix.read b buf pos (Bytes.length buf - pos) in
            fill (pos + n)
        in
        fill 0;
        Bytes.set buf flip
          (Char.chr (Char.code (Bytes.get buf flip) lxor 0x20));
        with_socketpair (fun c d ->
            ignore
              (Ppp_resilience.Robust_io.write_all c buf 0 (Bytes.length buf));
            Unix.close c;
            match Wire.read_frame d with
            | Ok got ->
                Alcotest.(check bool)
                  (Printf.sprintf "flip at %d must not alter the payload" flip)
                  true (got = payload)
            | Error (Wire.Corrupt _) | Error Wire.Closed -> ()
            | Error Wire.Timeout -> Alcotest.fail "unexpected timeout"))
  done

let test_wire_timeout () =
  with_socketpair (fun _a b ->
      let t0 = Unix.gettimeofday () in
      match Wire.read_frame ~deadline:(t0 +. 0.1) b with
      | Error Wire.Timeout ->
          Alcotest.(check bool)
            "timeout is prompt" true
            (Unix.gettimeofday () -. t0 < 1.0)
      | _ -> Alcotest.fail "expected a timeout")

let test_wire_truncated () =
  with_socketpair (fun a b ->
      (* A header that promises more payload than ever arrives. *)
      (match Wire.write_frame a (String.make 500 'q') with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write failed");
      let buf = Bytes.create 100 in
      let rec fill pos =
        if pos < 100 then fill (pos + Unix.read b buf pos (100 - pos))
      in
      fill 0;
      with_socketpair (fun c d ->
          ignore (Ppp_resilience.Robust_io.write_all c buf 0 100);
          Unix.close c;
          match Wire.read_frame d with
          | Error (Wire.Corrupt _) -> ()
          | Error e -> Alcotest.failf "expected Corrupt, got %s" (Wire.error_message e)
          | Ok _ -> Alcotest.fail "truncated frame must not parse"))

(* {2 Ops codecs} *)

let test_ops_roundtrip () =
  let reqs =
    [ Ops.Ping;
      Ops.Collect
        { bench = "bzip2"; scale = 3; sample_rate = 1;
          burst = Ppp_interp.Sampling.default_burst; sample_seed = 0 };
      Ops.Collect
        { bench = "vpr"; scale = 2; sample_rate = 16; burst = 8;
          sample_seed = 0x5eed };
      Ops.Merge { dumps = [ "a b c"; ""; "\x00bin" ]; decay = 1.0 };
      Ops.Merge { dumps = [ "old"; "new" ]; decay = 0.875 };
      Ops.Opt
        { name = "bench:gcc"; program = "routine f {}"; profile = Some "p";
          iterate = 4; plans = Some "deadbeef" };
      Ops.Status; Ops.Shutdown; Ops.Stall 1.5; Ops.Crash ]
  in
  List.iteri
    (fun i req ->
      let env = { Ops.id = i; deadline_ms = 100 * i; req } in
      match Ops.decode_request (Ops.encode_request env) with
      | Ok got -> Alcotest.(check bool) "request round-trips" true (got = env)
      | Error e -> Alcotest.failf "decode_request failed: %s" e)
    reqs;
  let replies =
    [ Ops.Okay { body = "result\nbytes\x00"; meta = [ ("k", Jsonx.Int 7) ] };
      Ops.Failed
        {
          code = "timeout";
          diagnostics =
            [ Diagnostic.make ~severity:Diagnostic.Warning ~line:3
                ~routine:"f" Diagnostic.Deadline_exceeded "too slow" ];
        } ]
  in
  List.iter
    (fun r ->
      match Ops.decode_reply (Ops.encode_reply r) with
      | Ok got -> Alcotest.(check bool) "reply round-trips" true (got = r)
      | Error e -> Alcotest.failf "decode_reply failed: %s" e)
    replies

(* Store keys travel through the one hex codec. *)
let test_ops_hex () =
  let s = String.init 256 Char.chr in
  match Hex.decode (Hex.encode s) with
  | Some got -> Alcotest.(check string) "hex round-trips all bytes" s got
  | None -> Alcotest.fail "hex decode failed"

(* A merge reply lists each diagnostic once: the merged dump already
   carries every input's parse diagnostics next to the merge's own. *)
let test_ops_merge_diagnostics_once () =
  let module Raw = Ppp_profile.Profile_io.Raw in
  let dump scale =
    let p = (Ppp_workloads.Spec.find "bzip2").Ppp_workloads.Spec.build ~scale in
    let o = Ppp_interp.Interp.run p in
    Format.asprintf "%t" (fun ppf ->
        Ppp_profile.Profile_io.save ?edges:o.Ppp_interp.Interp.edge_profile
          ?paths:o.Ppp_interp.Interp.path_profile ppf p)
  in
  let a = dump 1 in
  let dumps = [ a; dump 2; String.sub a 0 (String.length a / 2) ] in
  let expected = Raw.diagnostics (Raw.merge (List.map Raw.parse dumps)) in
  Alcotest.(check bool) "the merge has diagnostics" true (expected <> []);
  match Ops.handle ~chaos:false (Ops.Merge { dumps; decay = 1.0 }) with
  | Ops.Okay { meta; _ } ->
      Alcotest.(check string) "meta diagnostics are the merge's"
        (Jsonx.to_string (Diagnostic.list_to_json expected))
        (Jsonx.to_string (List.assoc "diagnostics" meta))
  | Ops.Failed _ -> Alcotest.fail "merge request failed"

(* A stored reply gains [served_from_store] by a splice that must give
   the bytes a decode, an append and an encode would: with empty and
   non-empty meta, and with bodies and meta whose strings hold quotes,
   backslashes and brackets. Nothing but a whole [Okay] reply is
   spliced. *)
let test_ops_mark_served () =
  let okays =
    [ ("", []);
      ("routine f {}\n", [ ("k", Jsonx.Int 7) ]);
      ( "quote\" back\\slash \\\" }}]{ \x00\xff\\",
        [ ("nested", Jsonx.Obj [ ("meta", Jsonx.Obj []) ]);
          ("s", Jsonx.Str "}\"{\\"); ("a", Jsonx.Arr [ Jsonx.Obj [] ]) ] );
      ("x", [ ("e", Jsonx.Obj []) ]) ]
  in
  List.iter
    (fun (body, meta) ->
      let encoded = Ops.encode_reply (Ops.Okay { body; meta }) in
      Alcotest.(check (option string))
        (Printf.sprintf "splice into %S" encoded)
        (Some (Ops.encode_reply (Ops.Okay { body; meta = meta @ [ Ops.served ] })))
        (Ops.mark_served encoded);
      for n = 0 to String.length encoded - 1 do
        if Ops.mark_served (String.sub encoded 0 n) <> None then
          Alcotest.failf "a %d-byte prefix of %S was spliced" n encoded
      done;
      let n = String.length encoded in
      List.iter
        (fun damaged ->
          if Ops.mark_served damaged <> None then
            Alcotest.failf "%S was spliced" damaged)
        [ encoded ^ "}"; encoded ^ " "; String.sub encoded 0 (n - 1) ^ "]" ])
    okays;
  Alcotest.(check (option string)) "a failed reply is not spliced" None
    (Ops.mark_served
       (Ops.encode_reply
          (Ops.Failed
             { code = "error"; diagnostics = [ Diagnostic.make Diagnostic.Io "x" ] })))

let prop_mark_served =
  QCheck.Test.make ~count:300 ~name:"ops: mark_served equals decode, append, encode"
    QCheck.(
      pair string
        (make
           Gen.(
             list_size (0 -- 4)
               (pair (string_size ~gen:char (0 -- 6)) Test_obs.json_gen))))
    (fun (body, meta) ->
      Ops.mark_served (Ops.encode_reply (Ops.Okay { body; meta }))
      = Some (Ops.encode_reply (Ops.Okay { body; meta = meta @ [ Ops.served ] })))

(* {2 Store} *)

let test_store_roundtrip () =
  let dir = tmpdir () in
  let t, diags = Store.open_store ~dir in
  Alcotest.(check int) "fresh store has no diagnostics" 0 (List.length diags);
  let payload = "profile dump\nwith lines\nand \x00 bytes" in
  (match Store.put t ~kind:"profile" ~key:"bzip2/scale=2" payload with
  | Ok () -> ()
  | Error d -> Alcotest.failf "put failed: %s" d.Diagnostic.message);
  (match Store.get t ~kind:"profile" ~key:"bzip2/scale=2" with
  | Some got -> Alcotest.(check string) "get returns put bytes" payload got
  | None -> Alcotest.fail "get missed a committed entry");
  Store.close t;
  (* Reopen: the entry survives, byte-identical. *)
  let t2, diags2 = Store.open_store ~dir in
  Alcotest.(check int) "clean reopen has no diagnostics" 0 (List.length diags2);
  (match Store.get t2 ~kind:"profile" ~key:"bzip2/scale=2" with
  | Some got -> Alcotest.(check string) "entry survives reopen" payload got
  | None -> Alcotest.fail "entry lost across reopen");
  Store.close t2

let obj_files dir =
  let objects = Filename.concat dir "objects" in
  Sys.readdir objects |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".obj")
  |> List.map (Filename.concat objects)
  |> List.sort compare

(* The central salvage property: whatever prefix-truncation or byte-flip
   hits an object file, reopening never raises and get never serves
   wrong bytes — each entry comes back either byte-identical or
   quarantined with a diagnostic. *)
let prop_store_salvage =
  QCheck.Test.make ~name:"corrupted store entries are salvaged or quarantined"
    ~count:60
    QCheck.(triple small_int small_int bool)
    (fun (seed, pos, truncate) ->
      let dir = tmpdir () in
      let t, _ = Store.open_store ~dir in
      let payload_a = Printf.sprintf "payload A seed=%d\n%s" seed (String.make 200 'a') in
      let payload_b = Printf.sprintf "payload B seed=%d\n%s" seed (String.make 100 'b') in
      (match
         ( Store.put t ~kind:"profile" ~key:"a" payload_a,
           Store.put t ~kind:"merge" ~key:"b" payload_b )
       with
      | Ok (), Ok () -> ()
      | _ -> QCheck.Test.fail_report "put failed");
      Store.close t;
      (* Corrupt the first object file at a position derived from the
         generated input. *)
      (match obj_files dir with
      | [] -> QCheck.Test.fail_report "no object files on disk"
      | file :: _ ->
          let contents = read_file file in
          let n = String.length contents in
          let at = pos mod n in
          let damaged =
            if truncate then String.sub contents 0 at
            else begin
              let b = Bytes.of_string contents in
              Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01));
              Bytes.to_string b
            end
          in
          if damaged <> contents then write_raw file damaged);
      let t2, _diags = Store.open_store ~dir in
      let ok_entry key payload =
        match Store.get t2 ~kind:(if key = "a" then "profile" else "merge") ~key with
        | Some got -> got = payload (* never wrong bytes *)
        | None -> true (* quarantined is acceptable *)
      in
      let a_ok = ok_entry "a" payload_a in
      let b_ok = ok_entry "b" payload_b in
      (* At least one of the two entries was untouched and must survive. *)
      let untouched_served =
        Store.get t2 ~kind:"merge" ~key:"b" = Some payload_b
        || Store.get t2 ~kind:"profile" ~key:"a" = Some payload_a
      in
      Store.close t2;
      a_ok && b_ok && untouched_served)

let test_store_kill9_mid_write () =
  (* A writer killed with SIGKILL mid-put must leave committed entries
     byte-identical and at worst a swept temp file for the in-flight
     one. Fork a child that commits entry A, then loops puts of entry B
     forever; kill it at a random point. *)
  let dir = tmpdir () in
  let payload_a = String.concat "\n" (List.init 64 (fun i -> Printf.sprintf "line %d" i)) in
  let rd, wr = Unix.pipe () in
  (match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let t, _ = Store.open_store ~dir in
      (match Store.put t ~kind:"profile" ~key:"committed" payload_a with
      | Ok () -> ignore (Unix.write wr (Bytes.of_string "!") 0 1)
      | Error _ -> Unix._exit 1);
      let i = ref 0 in
      while true do
        incr i;
        ignore
          (Store.put t ~kind:"profile" ~key:"inflight"
             (String.make (1 + (!i mod 5000)) (Char.chr (65 + (!i mod 26)))))
      done;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      (* Wait for the committed entry, let the put loop churn, then
         SIGKILL. *)
      let one = Bytes.create 1 in
      let rec await () =
        match Unix.read rd one 0 1 with
        | 1 -> ()
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
      in
      await ();
      Unix.close rd;
      Unix.sleepf 0.05;
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      let t, _diags = Store.open_store ~dir in
      (match Store.get t ~kind:"profile" ~key:"committed" with
      | Some got ->
          Alcotest.(check string) "committed entry byte-identical after kill -9"
            payload_a got
      | None -> Alcotest.fail "committed entry lost after kill -9");
      (* Whatever the in-flight entry's fate, a served value must be one
         the child actually wrote (all its puts are single-char runs). *)
      (match Store.get t ~kind:"profile" ~key:"inflight" with
      | None -> ()
      | Some v ->
          Alcotest.(check bool) "in-flight entry is a value actually written"
            true
            (String.length v > 0
            && String.for_all (fun c -> c = v.[0]) v));
      (* No temp droppings survive reopen. *)
      let leftovers =
        Sys.readdir (Filename.concat dir "objects")
        |> Array.to_list
        |> List.filter (fun n -> String.length n > 0 && n.[0] = '.')
      in
      Alcotest.(check (list string)) "temp files swept" [] leftovers;
      Store.close t)

let test_store_journal_salvage () =
  let dir = tmpdir () in
  let t, _ = Store.open_store ~dir in
  (match Store.put t ~kind:"profile" ~key:"k" "vvv" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "put failed");
  Store.close t;
  (* Tear the journal: append half a line with no newline. *)
  let journal = Filename.concat dir "journal.log" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 journal in
  output_string oc "put kind=profile key=6b len=3";
  close_out oc;
  let t2, diags = Store.open_store ~dir in
  Alcotest.(check bool) "torn journal reported" true
    (List.exists (fun d -> d.Diagnostic.kind = Diagnostic.Truncated) diags);
  (match Store.get t2 ~kind:"profile" ~key:"k" with
  | Some "vvv" -> ()
  | _ -> Alcotest.fail "entry must survive journal salvage");
  Store.close t2;
  (* And the journal is clean again: a third open reports nothing. *)
  let t3, diags3 = Store.open_store ~dir in
  Alcotest.(check int) "journal repaired in place" 0 (List.length diags3);
  Store.close t3

(* The on-disk format, written here by hand as older builds wrote it:
   the key hex-encoded by a per-byte [Printf] loop, the object named by
   FNV-1a 64 of the key. A store must open and serve it, and a fresh
   [put] of the same entry must write the same bytes. *)
let printf_hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* An object file's name and bytes, and its journal line. *)
let hand_written ~kind ~key payload =
  let crc s = Printf.sprintf "%08lx" (Ppp_resilience.Crc.string s) in
  let fields =
    Printf.sprintf "kind=%s key=%s len=%d crc=%s" kind (printf_hex key)
      (String.length payload) (crc payload)
  in
  let obj_name = Printf.sprintf "%s-%s.obj" kind (fnv1a64 key) in
  let obj = "ppp-store v1 " ^ fields ^ "\n" ^ payload ^ "\n" in
  let journal =
    let body = "put " ^ fields in
    Printf.sprintf "%s #crc=%s\n" body (crc body)
  in
  (obj_name, obj, journal)

let test_store_reads_hand_written_format () =
  let kind = "opt" and key = "{\"op\":\"opt\",\"name\":\"k\x00\xff\"}" in
  let payload = "reply body\nwith \x00 bytes\n" in
  let obj_name, obj, journal = hand_written ~kind ~key payload in
  let dir = tmpdir () in
  let objects = Filename.concat dir "objects" in
  Unix.mkdir objects 0o755;
  write_raw (Filename.concat objects obj_name) obj;
  write_raw (Filename.concat dir "journal.log") journal;
  let t, diags = Store.open_store ~dir in
  Alcotest.(check int) "hand-written store opens cleanly" 0 (List.length diags);
  Alcotest.(check (option string)) "hand-written entry is served"
    (Some payload) (Store.get t ~kind ~key);
  Store.close t;
  let dir2 = tmpdir () in
  let t2, _ = Store.open_store ~dir:dir2 in
  (match Store.put t2 ~kind ~key payload with
  | Ok () -> ()
  | Error d -> Alcotest.failf "put failed: %s" d.Diagnostic.message);
  Store.close t2;
  Alcotest.(check (list string)) "put names the object the same way"
    [ obj_name ]
    (List.map Filename.basename (obj_files dir2));
  Alcotest.(check string) "put writes the same object bytes" obj
    (read_file (Filename.concat (Filename.concat dir2 "objects") obj_name));
  Alcotest.(check string) "put writes the same journal line" journal
    (read_file (Filename.concat dir2 "journal.log"))

(* An [Opt] key carries a whole program, and the profile dump when the
   request sends one: hundreds of kilobytes of header hex. *)
let test_store_large_key () =
  let key = String.init 200_000 (fun i -> Char.chr ((i * 7919) land 0xff)) in
  let payload = "served" in
  let dir = tmpdir () in
  let t, _ = Store.open_store ~dir in
  (match Store.put t ~kind:"opt" ~key payload with
  | Ok () -> ()
  | Error d -> Alcotest.failf "put failed: %s" d.Diagnostic.message);
  Store.close t;
  let t2, diags = Store.open_store ~dir in
  Alcotest.(check int) "reopen has no diagnostics" 0 (List.length diags);
  Alcotest.(check (option string)) "a 200 KB key survives reopen"
    (Some payload) (Store.get t2 ~kind:"opt" ~key);
  Store.close t2

(* A negative [len=] in an object header is an unparsable header, never
   a raise: the entry is quarantined whether the damage is there at
   reopen or appears under an open store before [get]. *)
let negative_len_header path =
  let obj = read_file path in
  let nl = String.index obj '\n' in
  let old_header = String.sub obj 0 nl in
  let header =
    String.split_on_char ' ' old_header
    |> List.map (fun f -> if f = "len=11" then "len=-5" else f)
    |> String.concat " "
  in
  if header = old_header then Alcotest.fail "no len=11 field to edit";
  write_raw path (header ^ String.sub obj nl (String.length obj - nl))

let put_one dir =
  let t, _ = Store.open_store ~dir in
  (match Store.put t ~kind:"profile" ~key:"k" "eleven byte" with
  | Ok () -> ()
  | Error d -> Alcotest.failf "put failed: %s" d.Diagnostic.message);
  t

let test_store_negative_len_at_reopen () =
  let dir = tmpdir () in
  Store.close (put_one dir);
  List.iter negative_len_header (obj_files dir);
  let t, diags = Store.open_store ~dir in
  Alcotest.(check int) "one diagnostic" 1 (List.length diags);
  Alcotest.(check int) "the entry is quarantined" 1 (Store.quarantined t);
  Alcotest.(check (option string)) "nothing is served" None
    (Store.get t ~kind:"profile" ~key:"k");
  Store.close t

let test_store_negative_len_on_get () =
  let dir = tmpdir () in
  let t = put_one dir in
  List.iter negative_len_header (obj_files dir);
  Alcotest.(check (option string)) "get misses" None
    (Store.get t ~kind:"profile" ~key:"k");
  Alcotest.(check int) "the entry is quarantined" 1 (Store.quarantined t);
  Alcotest.(check int) "one diagnostic" 1
    (List.length (Store.drain_diagnostics t));
  Alcotest.(check bool) "dropped from the index" false
    (Store.mem t ~kind:"profile" ~key:"k");
  Store.close t

let bench_program name = (Ppp_workloads.Spec.find name).Ppp_workloads.Spec.build ~scale:1

(* {2 End-to-end: a real server process} *)

(* Fork a one-worker server on the store under [dir] (a fresh one by
   default), wait until it answers a ping, run [f socket] and shut the
   server down. [None] when it never became ready. *)
let with_server ?(dir = tmpdir ()) f =
  let socket = Filename.concat dir "pppd.sock" in
  let cfg =
    {
      (Server.default_config ~socket_path:socket
         ~store_dir:(Filename.concat dir "store"))
      with
      Server.quiet = true;
      workers = 1;
    }
  in
  match Unix.fork () with
  | 0 ->
      (try Server.run cfg with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      let deadline = Unix.gettimeofday () +. 10. in
      let rec await_ready () =
        match Client.call ~socket ~deadline_ms:500 Ops.Ping with
        | Ok ("pong", _) -> true
        | _ ->
            if Unix.gettimeofday () > deadline then false
            else begin
              Unix.sleepf 0.05;
              await_ready ()
            end
      in
      let ready = await_ready () in
      let result =
        Fun.protect
          ~finally:(fun () ->
            ignore (Client.call ~socket ~deadline_ms:3_000 Ops.Shutdown))
          (fun () -> if ready then Some (f socket) else None)
      in
      let rec reap () =
        match Unix.waitpid [] pid with
        | _, st -> st
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      in
      let st = reap () in
      Alcotest.(check bool) "daemon became ready" true ready;
      Alcotest.(check bool) "daemon exited cleanly" true (st = Unix.WEXITED 0);
      result

let test_server_e2e () =
  let merged =
    with_server (fun socket ->
        match
          Client.call ~socket ~deadline_ms:10_000
            (Ops.Merge { dumps = [ "ppp 1\n"; "ppp 1\n" ]; decay = 1.0 })
        with
        | Ok (body, _) -> Some body
        | Error _ -> None)
  in
  Alcotest.(check bool) "merge over the socket succeeded" true
    (Option.join merged <> None)

(* The warm path. The first reply is computed and stored under the
   request as sent; the second and third, identical to the first, are
   served from the store. *)
let test_server_serves_repeated_opt () =
  let req =
    Ops.Opt
      {
        name = "bzip2";
        program = Ppp_ir.Pp_ir.to_string (bench_program "bzip2");
        profile = None;
        iterate = 3;
        plans = None;
      }
  in
  let replies =
    with_server (fun socket ->
        let call () = Client.call ~socket ~deadline_ms:60_000 req in
        let r1 = call () in
        let r2 = call () in
        let r3 = call () in
        (r1, r2, r3))
  in
  let served meta = List.mem_assoc "served_from_store" meta in
  match replies with
  | Some (Ok (b1, m1), Ok (b2, m2), Ok (b3, m3)) ->
      Alcotest.(check bool) "first reply is computed" false (served m1);
      List.iter
        (fun (which, m) ->
          Alcotest.(check bool) (which ^ " reply is served from the store") true
            (List.assoc_opt "served_from_store" m = Some (Jsonx.Bool true)))
        [ ("second", m2); ("third", m3) ];
      Alcotest.(check string) "second body equals the first" b1 b2;
      Alcotest.(check string) "third body equals the first" b1 b3
  | Some _ -> Alcotest.fail "an opt request failed"
  | None -> Alcotest.fail "daemon never became ready"

(* What an older server stored under [plans]: a plan bundle. No build
   reads one any more, so any bytes stand in for it. *)
let stand_in_plans = "\x84\x95\xa6\xbe a plan bundle an older server stored\n"

(* A store written by older key formats. Its [profile] entry keeps its
   key. Its [merge] entry was keyed by its inputs' CRC-32s, and its
   [opt] entries by the request with the injected plan bundle, as hex
   and then as an MD5 suffix; they open cleanly but are never served:
   each request misses once, is recomputed, and hits from then on. Its
   [plans] entry, a kind the daemon does not serve, moves to quarantine
   at start. No new [opt] key holds a bundle or its digest. *)
let test_server_reads_older_store () =
  let name = "bzip2@older-store" in
  let program = Ppp_ir.Pp_ir.to_string (bench_program "bzip2") in
  let req plans = Ops.Opt { name; program; profile = None; iterate = 3; plans } in
  let plans = stand_in_plans in
  let in_process =
    Ops.encode_reply
      (Ops.opt ~session:(Session.create ~name ()) ~iterate:3 ~name
         (Ppp_ir.Parse.program_of_string program))
  in
  let older_opt_key =
    Ops.encode_request
      { Ops.id = 0; deadline_ms = 0; req = req (Some (Hex.encode plans)) }
  in
  let md5_opt_key =
    Ops.encode_request { Ops.id = 0; deadline_ms = 0; req = req None }
    ^ " plans-md5=" ^ Digest.to_hex (Digest.string plans)
  in
  let crc_merge_key =
    List.map (fun d -> Printf.sprintf "%08lx" (Crc.string d)) [ "a"; "b" ]
    |> List.sort compare |> String.concat "+"
  in
  let dir = tmpdir () in
  let store = Filename.concat dir "store" in
  let objects = Filename.concat store "objects" in
  Unix.mkdir store 0o755;
  Unix.mkdir objects 0o755;
  let plans_file, _, _ = hand_written ~kind:"plans" ~key:name plans in
  List.iter
    (fun (kind, key, payload) ->
      let file, obj, _ = hand_written ~kind ~key payload in
      write_raw (Filename.concat objects file) obj)
    [ ("opt", older_opt_key, Ops.encode_reply (Ops.Okay { body = "stale"; meta = [] }));
      ("opt", md5_opt_key, Ops.encode_reply (Ops.Okay { body = "stale"; meta = [] }));
      ("plans", name, plans);
      ("profile", "mcf/scale=1", "stored profile");
      ("merge", crc_merge_key, "stored merge") ];
  let replies =
    with_server ~dir (fun socket ->
        let call r = Client.call ~socket ~deadline_ms:60_000 r in
        let status = call Ops.Status in
        let twice r =
          let first = call r in
          (first, call r)
        in
        let collect =
          twice
            (Ops.Collect
               { bench = "mcf"; scale = 1; sample_rate = 1;
                 burst = Ppp_interp.Sampling.default_burst; sample_seed = 0 })
        in
        let merge = twice (Ops.Merge { dumps = [ "b"; "a" ]; decay = 1.0 }) in
        let o1 = call (req None) in
        let o2 = call (req None) in
        (status, collect, merge, o1, o2))
  in
  let served meta = List.assoc_opt "served_from_store" meta = Some (Jsonx.Bool true) in
  (match replies with
  | Some
      ( Ok (_, st),
        (Ok (cb1, cm1), Ok (cb2, cm2)),
        (Ok (mb1, mm1), Ok (mb2, mm2)),
        Ok (b1, m1),
        Ok (b2, m2) ) ->
      Alcotest.(check bool) "nothing quarantined" true
        (List.assoc_opt "store_quarantined" st = Some (Jsonx.Int 0));
      (* A bare profile or merged dump is no reply: it misses once, and
         the reply recomputed in its place is served from then on. *)
      List.iter
        (fun (kind, stored, (b1, m1), (b2, m2)) ->
          Alcotest.(check bool) (kind ^ " entry missed once") false
            (served m1 || b1 = stored);
          Alcotest.(check (pair string bool)) (kind ^ " reply served next")
            (b1, true) (b2, served m2))
        [ ("profile", "stored profile", (cb1, cm1), (cb2, cm2));
          ("merge", "stored merge", (mb1, mm1), (mb2, mm2)) ];
      Alcotest.(check bool) "older opt entries not served" false
        (served m1 || b1 = "stale");
      (* The in-process reply, meta included: no plan was imported. *)
      Alcotest.(check string) "the in-process reply" in_process
        (Ops.encode_reply (Ops.Okay { body = b1; meta = m1 }));
      Alcotest.(check bool) "the recomputed reply is served next" true (served m2);
      Alcotest.(check string) "same body" b1 b2
  | Some _ -> Alcotest.fail "a request failed"
  | None -> Alcotest.fail "daemon never became ready");
  let quarantine = Filename.concat store "quarantine" in
  Alcotest.(check (pair bool bool)) "the plans entry moved to quarantine"
    (false, true)
    ( Sys.file_exists (Filename.concat objects plans_file),
      Sys.file_exists (Filename.concat quarantine plans_file) );
  let sent = Ops.encode_request { Ops.id = 0; deadline_ms = 0; req = req None } in
  List.iter
    (fun path ->
      if Filename.check_suffix (Filename.basename path) ".obj"
         && String.starts_with ~prefix:"opt-" (Filename.basename path)
      then
        let contents = read_file path in
        let header = String.sub contents 0 (String.index contents '\n') in
        let key =
          List.find_map
            (fun f ->
              if String.starts_with ~prefix:"key=" f then
                Hex.decode (String.sub f 4 (String.length f - 4))
              else None)
            (String.split_on_char ' ' header)
        in
        match key with
        | Some key ->
            if key <> older_opt_key && key <> md5_opt_key && key <> sent then
              Alcotest.failf "%s is not keyed by the request as sent" path
        | None -> Alcotest.failf "%s has no key" path)
    (obj_files store)

(* An [opt --profile] entry is keyed by the request with its dump
   zeroed, plus the dump's digest and nothing else: the key stays the
   size of the program. A store written before keeps serving a request
   without a profile, whose key did not change, and its [opt --profile]
   entry (keyed by the whole dump and a plan bundle's digest) opens
   cleanly, misses once, then hits. *)
let test_server_keys_profile_by_digest () =
  let program = Ppp_ir.Pp_ir.to_string (bench_program "bzip2") in
  let dump =
    let p = bench_program "bzip2" in
    let o = Ppp_interp.Interp.run p in
    Format.asprintf "%t" (fun ppf ->
        Ppp_profile.Profile_io.save ?edges:o.Ppp_interp.Interp.edge_profile
          ?paths:o.Ppp_interp.Interp.path_profile ppf p)
  in
  let name = "bzip2@profile-key" in
  let req ?(name = name) ?(iterate = 1) profile =
    Ops.Opt { name; program; profile; iterate; plans = None }
  in
  let plans = stand_in_plans in
  let sent r = Ops.encode_request { Ops.id = 0; deadline_ms = 0; req = r } in
  let older_profile_key =
    sent (req (Some dump)) ^ " plans-md5=" ^ Digest.to_hex (Digest.string plans)
  in
  let plain = req ~name:(name ^ "/plain") ~iterate:3 None in
  let dir = tmpdir () in
  let store = Filename.concat dir "store" in
  let objects = Filename.concat store "objects" in
  Unix.mkdir store 0o755;
  Unix.mkdir objects 0o755;
  List.iter
    (fun (kind, key, payload) ->
      let file, obj, _ = hand_written ~kind ~key payload in
      write_raw (Filename.concat objects file) obj)
    [ ( "opt", older_profile_key,
        Ops.encode_reply (Ops.Okay { body = "stale"; meta = [] }) );
      ( "opt", sent plain,
        Ops.encode_reply (Ops.Okay { body = "kept"; meta = [] }) );
      ("plans", name, plans) ];
  let replies =
    with_server ~dir (fun socket ->
        let call r = Client.call ~socket ~deadline_ms:60_000 r in
        let status = call Ops.Status in
        let kept = call plain in
        let o1 = call (req (Some dump)) in
        let o2 = call (req (Some dump)) in
        (status, kept, o1, o2))
  in
  let served meta =
    List.assoc_opt "served_from_store" meta = Some (Jsonx.Bool true)
  in
  (match replies with
  | Some (Ok (_, st), Ok (kb, km), Ok (b1, m1), Ok (b2, m2)) ->
      Alcotest.(check bool) "nothing quarantined" true
        (List.assoc_opt "store_quarantined" st = Some (Jsonx.Int 0));
      Alcotest.(check (pair string bool)) "an opt without a profile keeps its key"
        ("kept", true) (kb, served km);
      Alcotest.(check bool) "the older opt --profile entry is not served" false
        (served m1 || b1 = "stale");
      Alcotest.(check bool) "the recomputed reply is served next" true (served m2);
      Alcotest.(check string) "same body" b1 b2
  | Some _ -> Alcotest.fail "a request failed"
  | None -> Alcotest.fail "daemon never became ready");
  let suffix = " profile-md5=" ^ Digest.to_hex (Digest.string dump) in
  let profile_keys =
    List.filter_map
      (fun path ->
        let file = Filename.basename path in
        if not (String.starts_with ~prefix:"opt-" file) then None
        else
          let contents = read_file path in
          let header = String.sub contents 0 (String.index contents '\n') in
          List.find_map
            (fun f ->
              if String.starts_with ~prefix:"key=" f then
                Hex.decode (String.sub f 4 (String.length f - 4))
              else None)
            (String.split_on_char ' ' header))
      (obj_files store)
    |> List.filter (fun key -> key <> older_profile_key && key <> sent plain)
  in
  Alcotest.(check int) "one new opt entry" 1 (List.length profile_keys);
  List.iter
    (fun key ->
      Alcotest.(check bool) "keyed by the dump's digest" true
        (String.length key < String.length dump
        && String.ends_with ~suffix key))
    profile_keys

(* [dump] behind a leading comment line whose four solved bytes give
   the whole text the CRC-32 [target]. For texts of one length, CRC-32
   is affine over GF(2): flipping bit [i] of the text flips the CRC by a
   fixed [delta i], so the 32 bits of four bytes reach any CRC by
   Gaussian elimination over their 32 deltas. A solution holding a
   newline would end the comment early; the comment's fixed bytes are
   then re-picked. *)
let with_crc ~target dump =
  let crc s = Int32.to_int (Crc.string s) land 0xffff_ffff in
  let rec attempt salt =
    let text b = Printf.sprintf "# salt %d: %s\n%s" salt (Bytes.to_string b) dump in
    let base = Bytes.make 4 'x' in
    let flipped bits =
      let b = Bytes.copy base in
      for i = 0 to 31 do
        if bits land (1 lsl i) <> 0 then
          Bytes.set b (i / 8)
            (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))))
      done;
      b
    in
    let crc0 = crc (text base) in
    (* basis.(k): a combination of flips whose delta has highest bit k *)
    let basis = Array.make 32 None in
    let rec reduce ~insert v bits k =
      if k < 0 then Some bits
      else if v land (1 lsl k) = 0 then reduce ~insert v bits (k - 1)
      else
        match basis.(k) with
        | Some (bv, bbits) -> reduce ~insert (v lxor bv) (bits lxor bbits) (k - 1)
        | None ->
            if insert then basis.(k) <- Some (v, bits);
            None
    in
    for i = 0 to 31 do
      ignore (reduce ~insert:true (crc (text (flipped (1 lsl i))) lxor crc0) (1 lsl i) 31)
    done;
    match reduce ~insert:false (crc0 lxor target) 0 31 with
    | Some bits when not (Bytes.contains (flipped bits) '\n') -> text (flipped bits)
    | _ -> attempt (salt + 1)
  in
  attempt 0

(* A [Merge] entry is keyed by its inputs' digests. A second program's
   dump, whose leading comment gives it the first dump's CRC-32, misses
   the store and gets its own merge. *)
let test_server_keys_merge_by_digest () =
  let dump bench =
    match Ops.collect (bench_program bench) with
    | Ops.Okay { body; _ } -> body
    | Ops.Failed _ -> Alcotest.fail "collect failed"
  in
  let d1 = dump "mcf" in
  let d2 = with_crc ~target:(Int32.to_int (Crc.string d1) land 0xffff_ffff) (dump "bzip2") in
  Alcotest.(check int32) "the two dumps share a CRC-32" (Crc.string d1) (Crc.string d2);
  let merge dumps = Ops.Merge { dumps; decay = 1.0 } in
  let replies =
    with_server (fun socket ->
        let call r = Client.call ~socket ~deadline_ms:60_000 r in
        let first = call (merge [ d1 ]) in
        (first, call (merge [ d2 ])))
  in
  match replies with
  | Some (Ok _, Ok (body, meta)) ->
      Alcotest.(check bool) "the second merge is not served" false
        (List.mem_assoc "served_from_store" meta);
      Alcotest.(check string) "it is the second dump's merge"
        (Ops.encode_reply (Ops.merge ~decay:1.0 [ d2 ]))
        (Ops.encode_reply (Ops.Okay { body; meta }))
  | Some _ -> Alcotest.fail "a merge failed"
  | None -> Alcotest.fail "daemon never became ready"

(* A worker keeps nothing between requests: 99 more requests under
   never-seen names leave the live heap where the first one left it. *)
let test_ops_worker_keeps_nothing () =
  let program =
    "main main\n\nroutine main(0) regs 3 {\nentry:\n  r0 = 0\n  r1 = 0\n\
     \  jump head\nhead:\n  r2 = r1 < 40\n  br r2, body, done\nbody:\n\
     \  r0 = r0 + r1\n  r1 = r1 + 1\n  jump head\ndone:\n  ret r0\n}\n"
  in
  let send k =
    match
      Ops.handle ~chaos:false
        (Ops.Opt
           { name = Printf.sprintf "fresh@%d" k; program; profile = None;
             iterate = 3; plans = None })
    with
    | Ops.Okay _ -> ()
    | Ops.Failed { diagnostics; _ } ->
        Alcotest.failf "request %d failed: %a" k Diagnostic.pp_list diagnostics
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  send 0;
  let first = live_words () in
  for k = 1 to 99 do send k done;
  let after = live_words () in
  Alcotest.(check bool)
    (Printf.sprintf
       "live heap after 100 names (%d words) within 16,384 of after one (%d)"
       after first)
    true
    (after - first <= 16_384)

(* A profile with [iterate > 1], and a dump no routine can be salvaged
   from, are both refused as bad requests. *)
let test_ops_rejected_opt_takes_no_session () =
  let p = (Ppp_workloads.Spec.find "mcf").Ppp_workloads.Spec.build ~scale:1 in
  let good =
    match Ops.collect p with
    | Ops.Okay { body; _ } -> body
    | Ops.Failed _ -> Alcotest.fail "collect failed"
  in
  let header = String.sub good 0 (String.index good '\n' + 1) in
  List.iteri
    (fun k (profile, iterate) ->
      match
        Ops.handle ~chaos:false
          (Ops.Opt
             { name = Printf.sprintf "rejected@%d" k;
               program = Ppp_ir.Pp_ir.to_string p; profile = Some profile;
               iterate; plans = None })
      with
      | Ops.Failed { code = "bad-request"; _ } -> ()
      | _ -> Alcotest.failf "request %d was not rejected" k)
    [ (good, 3); (header ^ "\xff\xfegarbage line\n", 1) ]

(* A reply served from the store prints what its first answer printed,
   plus the served line: the store keeps a merge's and a collect's whole
   reply, as it keeps an opt's. *)
let test_server_serves_whole_replies () =
  let good =
    match Ops.collect (bench_program "mcf") with
    | Ops.Okay { body; _ } -> body
    | Ops.Failed _ -> Alcotest.fail "collect failed"
  in
  let corrupt =
    String.sub good 0 (String.index good '\n' + 1) ^ "\xff\xfegarbage line\n"
  in
  let requests =
    [ ("merge of a good and a corrupt dump",
       Ops.Merge { dumps = [ good; corrupt ]; decay = 1.0 });
      ("1/16 sampled collect",
       Ops.Collect
         { bench = "mcf"; scale = 1; sample_rate = 16;
           burst = Ppp_interp.Sampling.default_burst; sample_seed = 42 }) ]
  in
  let replies =
    with_server (fun socket ->
        let call r = Client.call ~socket ~deadline_ms:60_000 r in
        List.map (fun (label, r) -> let first = call r in (label, first, call r)) requests)
  in
  let render (body, meta) =
    body ^ Format.asprintf "%a" (Ops.pp_summary ?name:None) (Ops.Okay { body; meta })
  in
  match replies with
  | None -> Alcotest.fail "no server"
  | Some rs ->
      List.iter
        (fun (label, first, second) ->
          match (first, second) with
          | Ok a, Ok b ->
              Alcotest.(check bool) (label ^ ": the first reply computed") false
                (Test_interp.contains ~sub:"served from" (render a));
              Alcotest.(check string) label
                (render a ^ "served from the daemon store\n")
                (render b)
          | _ -> Alcotest.fail (label ^ ": a request failed"))
        rs

(* [pppc] renders a reply the same whether it built the reply in process
   or decoded it off the wire. *)
let test_ops_decoded_reply_renders_alike () =
  let build name scale =
    (Ppp_workloads.Spec.find name).Ppp_workloads.Spec.build ~scale
  in
  let dump name scale =
    match Ops.collect (build name scale) with
    | Ops.Okay { body; _ } -> body
    | Ops.Failed _ -> Alcotest.fail "collect failed"
  in
  let opt ?profile name iterate =
    Ops.Opt
      { name = "render@" ^ name; program = Ppp_ir.Pp_ir.to_string (build name 1);
        profile; iterate; plans = None }
  in
  let good = dump "mcf" 1 in
  let corrupt =
    String.sub good 0 (String.index good '\n' + 1) ^ "\xff\xfegarbage line\n"
  in
  let render r =
    match r with
    | Ops.Okay { body; _ } ->
        body ^ Format.asprintf "%a" (Ops.pp_summary ~name:"render") r
    | Ops.Failed _ -> Alcotest.fail "request failed"
  in
  List.iter
    (fun (label, req, shown) ->
      let reply = Ops.handle ~chaos:false req in
      let text = render reply in
      Alcotest.(check bool)
        (Printf.sprintf "%s shows %S" label shown)
        true
        (Test_interp.contains ~sub:shown text);
      match Ops.decode_reply (Ops.encode_reply reply) with
      | Ok decoded -> Alcotest.(check string) label text (render decoded)
      | Error e -> Alcotest.failf "%s: decode_reply failed: %s" label e)
    [ ("bzip2 --iterate 3", opt "bzip2" 3, "\nsession render (cache on)");
      ("crafty --profile", opt ~profile:(dump "crafty" 1) "crafty" 1, "\ninlined ");
      ( "crafty, a stale profile",
        opt ~profile:(dump "crafty" 2) "crafty" 1,
        " stale routines salvaged" );
      ( "merge of a good and a corrupt dump",
        Ops.Merge { dumps = [ good; corrupt ]; decay = 1.0 },
        "garbage" ) ];
  (* An older server's merge reply has no input count: its diagnostics
     print, its merge line does not. *)
  match Ops.handle ~chaos:false (Ops.Merge { dumps = [ good; corrupt ]; decay = 1.0 }) with
  | Ops.Okay { body; meta } ->
      let text =
        render (Ops.Okay { body; meta = List.remove_assoc "dumps" meta })
      in
      Alcotest.(check (pair bool bool)) "an older reply prints what it has"
        (true, false)
        ( Test_interp.contains ~sub:"garbage" text,
          Test_interp.contains ~sub:"merged " text )
  | Ops.Failed _ -> Alcotest.fail "merge failed"

(* A daemon's [Opt] reply is the reply [pppc] builds in process:
   [Ops.handle] encodes the bytes [Ops.opt] gives with a fresh session,
   whatever the worker served before under the same name (bzip2 at scale
   3 after scale 2), and the [plans] member a request carries changes
   nothing. *)
let test_ops_daemon_opt_is_in_process () =
  let name = "bzip2@in-process/edited" in
  List.iter
    (fun scale ->
      let program =
        Ppp_ir.Pp_ir.to_string
          ((Ppp_workloads.Spec.find "bzip2").Ppp_workloads.Spec.build ~scale)
      in
      Alcotest.(check string)
        (Printf.sprintf "bzip2 at scale %d under one name" scale)
        (Ops.encode_reply
           (Ops.opt ~session:(Session.create ~name ()) ~iterate:3 ~name
              (Ppp_ir.Parse.program_of_string program)))
        (Ops.encode_reply
           (Ops.handle ~chaos:false
              (Ops.Opt
                 { name; program; profile = None; iterate = 3; plans = None }))))
    [ 2; 3 ];
  List.iter
    (fun (bench, iterate) ->
      let program = Ppp_ir.Pp_ir.to_string (bench_program bench) in
      let name = Printf.sprintf "%s@in-process/%d" bench iterate in
      let handled ?plans name =
        Ops.encode_reply
          (Ops.handle ~chaos:false
             (Ops.Opt { name; program; profile = None; iterate; plans }))
      in
      let expected =
        Ops.encode_reply
          (Ops.opt ~session:(Session.create ~name ()) ~iterate ~name
             (Ppp_ir.Parse.program_of_string program))
      in
      let label = Printf.sprintf "%s --iterate %d" bench iterate in
      Alcotest.(check string) label expected (handled name);
      Alcotest.(check string) (label ^ " with plans") expected
        (handled ~plans:"junk" (name ^ "/junk")))
    [ ("bzip2", 3); ("bzip2", 1); ("crafty", 3); ("crafty", 1); ("vpr", 3);
      ("vpr", 1) ]

(* [plans] is ignored by [Ops.handle], so it is no part of an [Opt]'s
   store key: the same request sent with and without it is computed
   and stored once. *)
let test_server_ignores_plans_in_key () =
  let req plans =
    Ops.Opt
      {
        name = "mcf@plans-key";
        program = Ppp_ir.Pp_ir.to_string (bench_program "mcf");
        profile = None;
        iterate = 1;
        plans;
      }
  in
  let dir = tmpdir () in
  let replies =
    with_server ~dir (fun socket ->
        let call r = Client.call ~socket ~deadline_ms:60_000 r in
        let first = call (req None) in
        (first, call (req (Some "x"))))
  in
  (match replies with
  | Some (Ok (b1, m1), Ok (b2, m2)) ->
      let served m =
        List.assoc_opt "served_from_store" m = Some (Jsonx.Bool true)
      in
      Alcotest.(check bool) "the first send is computed" false (served m1);
      Alcotest.(check bool) "the second is served from the store" true (served m2);
      Alcotest.(check string) "same body" b1 b2
  | Some _ -> Alcotest.fail "an opt request failed"
  | None -> Alcotest.fail "daemon never became ready");
  Alcotest.(check int) "one opt entry" 1
    (List.length
       (List.filter
          (fun path -> String.starts_with ~prefix:"opt-" (Filename.basename path))
          (obj_files (Filename.concat dir "store"))))

let suite =
  [
    Alcotest.test_case "wire: frames round-trip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire: corruption rejected" `Quick
      test_wire_rejects_corruption;
    Alcotest.test_case "wire: deadline becomes Timeout" `Quick
      test_wire_timeout;
    Alcotest.test_case "wire: truncated frame is Corrupt" `Quick
      test_wire_truncated;
    Alcotest.test_case "ops: codecs round-trip" `Quick test_ops_roundtrip;
    Alcotest.test_case "ops: hex round-trips all bytes" `Quick test_ops_hex;
    Alcotest.test_case "ops: merge reports each diagnostic once" `Quick
      test_ops_merge_diagnostics_once;
    Alcotest.test_case "store: put/get/reopen byte-identical" `Quick
      test_store_roundtrip;
    Alcotest.test_case "store: kill -9 mid-write keeps committed entries"
      `Quick test_store_kill9_mid_write;
    Alcotest.test_case "store: torn journal salvaged in place" `Quick
      test_store_journal_salvage;
    Alcotest.test_case "store: reads and writes the hand-written format"
      `Quick test_store_reads_hand_written_format;
    Alcotest.test_case "store: a 200 KB key survives reopen" `Quick
      test_store_large_key;
    Alcotest.test_case "store: a negative len is quarantined at reopen"
      `Quick test_store_negative_len_at_reopen;
    Alcotest.test_case "store: a negative len is quarantined on get" `Quick
      test_store_negative_len_on_get;
    Alcotest.test_case "server: a merge is keyed by its inputs' digests"
      `Quick test_server_keys_merge_by_digest;
    Alcotest.test_case "server: end-to-end over the socket" `Quick
      test_server_e2e;
    Alcotest.test_case "server: a repeated opt is served from the store"
      `Quick test_server_serves_repeated_opt;
    Alcotest.test_case "server: an older store's entries" `Quick
      test_server_reads_older_store;
    Alcotest.test_case "ops: mark_served splices the served field" `Quick
      test_ops_mark_served;
    Alcotest.test_case "server: opt --profile is keyed by the dump's digest"
      `Quick test_server_keys_profile_by_digest;
    Alcotest.test_case "ops: a worker keeps nothing between requests" `Quick
      test_ops_worker_keeps_nothing;
    Alcotest.test_case "ops: a rejected opt takes no resident session" `Quick
      test_ops_rejected_opt_takes_no_session;
    Alcotest.test_case "ops: a decoded reply renders like the in-memory one"
      `Quick test_ops_decoded_reply_renders_alike;
    Alcotest.test_case "server: a stored merge or collect prints its first reply"
      `Quick test_server_serves_whole_replies;
    Alcotest.test_case "ops: a daemon opt reply is the in-process reply"
      `Quick test_ops_daemon_opt_is_in_process;
    Alcotest.test_case "server: an opt is not keyed by its plans" `Quick
      test_server_ignores_plans_in_key;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_store_salvage; prop_mark_served ]
