type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* {2 Printing}

   One [Buffer] per document. A string is copied in runs of bytes that
   print as themselves, so a 200 KB body costs a few block copies. *)

let[@inline] plain c = c >= ' ' && c < '\x7f' && c <> '"' && c <> '\\'

let hex_digits = "0123456789abcdef"

let add_escaped b s =
  let n = String.length s in
  let rec go start i =
    if i = n then Buffer.add_substring b s start (i - start)
    else
      let c = String.unsafe_get s i in
      if plain c then go start (i + 1)
      else begin
        Buffer.add_substring b s start (i - start);
        (match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c ->
            (* Escaping the upper half keeps the output pure ASCII, hence
               valid UTF-8 JSON even when a string carries raw bytes (e.g.
               diagnostics quoting a corrupt profile's garbage token). *)
            let k = Char.code c in
            Buffer.add_string b "\\u00";
            Buffer.add_char b hex_digits.[k lsr 4];
            Buffer.add_char b hex_digits.[k land 15]);
        go (i + 1) (i + 1)
      end
  in
  go 0 0

let add_quoted b s =
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"'

let add_float b f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.bprintf b "%.1f" f
  else if Float.is_finite f then Printf.bprintf b "%.12g" f
  else Buffer.add_string b "null"

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (Int.to_string i)
  | Float f -> add_float b f
  | Str s -> add_quoted b s
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          add b v)
        l;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_quoted b k;
          Buffer.add_char b ':';
          add b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* {2 Parsing}

   The cursor is compared against the input's length in place; a string
   is copied in runs between escapes, and one with no escape is a single
   [String.sub]. *)

type parser_state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let[@inline] looking_at st c =
  st.pos < String.length st.src && String.unsafe_get st.src st.pos = c

let skip_ws st =
  let n = String.length st.src in
  while
    st.pos < n
    &&
    match String.unsafe_get st.src st.pos with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  if looking_at st c then st.pos <- st.pos + 1
  else fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

(* The end of the run of unescaped bytes from [i]: the first quote or
   backslash, or the end of input. *)
let rec run_end src i =
  if i = String.length src then i
  else
    match String.unsafe_get src i with
    | '"' | '\\' -> i
    | _ -> run_end src (i + 1)

let parse_escape st b =
  let src = st.src in
  let c = src.[st.pos] in
  st.pos <- st.pos + 1;
  match c with
  | '"' -> Buffer.add_char b '"'
  | '\\' -> Buffer.add_char b '\\'
  | '/' -> Buffer.add_char b '/'
  | 'b' -> Buffer.add_char b '\b'
  | 'f' -> Buffer.add_char b '\012'
  | 'n' -> Buffer.add_char b '\n'
  | 'r' -> Buffer.add_char b '\r'
  | 't' -> Buffer.add_char b '\t'
  | 'u' ->
      if st.pos + 4 > String.length src then fail st "truncated \\u escape";
      let code =
        match int_of_string_opt ("0x" ^ String.sub src st.pos 4) with
        | Some code -> code
        | None -> fail st "bad \\u escape"
      in
      st.pos <- st.pos + 4;
      (* The printer writes every byte outside printable ASCII as
         [\u00XX], so these code points are bytes; a string round-trips
         exactly. Beyond them lies text this codec does not speak. *)
      Buffer.add_char b (if code < 0x100 then Char.chr code else '?')
  | _ -> fail st "unknown escape"

let parse_string st =
  expect st '"';
  let src = st.src in
  let n = String.length src in
  let start = st.pos in
  let stop = run_end src start in
  if stop < n && String.unsafe_get src stop = '"' then begin
    st.pos <- stop + 1;
    String.sub src start (stop - start)
  end
  else begin
    let b = Buffer.create (stop - start + 16) in
    Buffer.add_substring b src start (stop - start);
    st.pos <- stop;
    let rec loop () =
      if st.pos = n then fail st "unterminated string"
      else if String.unsafe_get src st.pos = '"' then st.pos <- st.pos + 1
      else begin
        (* At a backslash: one escape, then the next run. *)
        st.pos <- st.pos + 1;
        if st.pos = n then fail st "unterminated escape";
        parse_escape st b;
        let stop = run_end src st.pos in
        Buffer.add_substring b src st.pos (stop - st.pos);
        st.pos <- stop;
        loop ()
      end
    in
    loop ();
    Buffer.contents b
  end

let parse_number st =
  let src = st.src in
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length src && is_num_char (String.unsafe_get src st.pos)
  do
    st.pos <- st.pos + 1
  done;
  let text = String.sub src start (st.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail st "malformed number")

(* After a member: a comma continues the container, [close] ends it. *)
let continues st ~close =
  skip_ws st;
  if looking_at st ',' then begin
    st.pos <- st.pos + 1;
    true
  end
  else if looking_at st close then begin
    st.pos <- st.pos + 1;
    false
  end
  else fail st (Printf.sprintf "expected ',' or '%c'" close)

let rec parse_value st =
  skip_ws st;
  if st.pos = String.length st.src then fail st "unexpected end of input";
  match String.unsafe_get st.src st.pos with
  | '"' -> Str (parse_string st)
  | '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if looking_at st '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else
        let rec fields acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let acc = (key, parse_value st) :: acc in
          if continues st ~close:'}' then fields acc else List.rev acc
        in
        Obj (fields [])
  | '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if looking_at st ']' then begin
        st.pos <- st.pos + 1;
        Arr []
      end
      else
        let rec items acc =
          let acc = parse_value st :: acc in
          if continues st ~close:']' then items acc else List.rev acc
        in
        Arr (items [])
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | 'n' -> literal st "null" Null
  | '-' | '0' .. '9' -> parse_number st
  | c -> fail st (Printf.sprintf "unexpected character %C" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

let member v key =
  match v with Obj fields -> List.assoc_opt key fields | _ -> None

let to_list = function Arr l -> l | _ -> []

let rec canonical = function
  | (Null | Bool _ | Int _ | Float _ | Str _) as v -> v
  | Arr l -> Arr (List.map canonical l)
  | Obj fields ->
      Obj
        (List.map (fun (k, v) -> (k, canonical v)) fields
        |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b))
