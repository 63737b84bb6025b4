(* SplitMix64, truncated to OCaml int; good enough mixing for fuzzing
   and fully deterministic from the seed. *)
type rng = { mutable state : int64 }

let rng ~seed = { state = Int64.of_int seed }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int r bound =
  if bound <= 0 then invalid_arg "Faults.int";
  Int64.to_int (Int64.rem (Int64.logand (next r) Int64.max_int) (Int64.of_int bound))

type fault =
  | Truncate
  | Flip_count
  | Reorder_sections
  | Rename_routine
  | Drop_registration
  | Duplicate_registration
  | Garbage_line

let all =
  [
    Truncate; Flip_count; Reorder_sections; Rename_routine; Drop_registration;
    Duplicate_registration; Garbage_line;
  ]

let name = function
  | Truncate -> "truncate"
  | Flip_count -> "flip-count"
  | Reorder_sections -> "reorder-sections"
  | Rename_routine -> "rename-routine"
  | Drop_registration -> "drop-registration"
  | Duplicate_registration -> "duplicate-registration"
  | Garbage_line -> "garbage-line"

let of_name s = List.find_opt (fun f -> name f = s) all

let lines text = String.split_on_char '\n' text
let unlines ls = String.concat "\n" ls

(* Indices of lines satisfying [p]. *)
let where p ls =
  List.mapi (fun i l -> (i, l)) ls
  |> List.filter_map (fun (i, l) -> if p l then Some i else None)

let is_counter_line l =
  let l = String.trim l in
  String.length l > 0
  && (match String.index_opt l ' ' with
     | Some _ ->
         (l.[0] = 'e' && String.length l > 1 && l.[1] >= '0' && l.[1] <= '9')
         || (l.[0] >= '0' && l.[0] <= '9')
     | None -> false)

let is_section_line l =
  let l = String.trim l in
  String.length l >= 7 && String.sub l 0 7 = "section"

let is_routine_line l =
  let l = String.trim l in
  String.length l >= 8 && String.sub l 0 8 = "routine "

let pick_index r = function
  | [] -> None
  | is -> Some (List.nth is (int r (List.length is)))

let replace_line idx f ls = List.mapi (fun i l -> if i = idx then f l else l) ls

let garbage r =
  let n = 4 + int r 24 in
  String.init n (fun _ -> Char.chr (1 + int r 255))

let append_garbage r text = text ^ "\n" ^ garbage r

let apply r fault text =
  let ls = lines text in
  let out =
    match fault with
    | Truncate ->
        if String.length text < 2 then ""
        else String.sub text 0 (String.length text / 2 + int r (String.length text / 4 + 1))
    | Flip_count -> (
        match pick_index r (where is_counter_line ls) with
        | None -> append_garbage r text
        | Some i ->
            unlines
              (replace_line i
                 (fun l ->
                   (* Corrupt one digit into a non-digit, or explode the
                      magnitude — both the syntactic and the semantic
                      flavor of a flipped counter. *)
                   let b = Bytes.of_string l in
                   let digits = ref [] in
                   Bytes.iteri
                     (fun j c -> if c >= '0' && c <= '9' then digits := j :: !digits)
                     b;
                   match !digits with
                   | [] -> l ^ "x"
                   | ds ->
                       let j = List.nth ds (int r (List.length ds)) in
                       if int r 2 = 0 then begin
                         Bytes.set b j 'x';
                         Bytes.to_string b
                       end
                       else
                         String.sub l 0 j ^ "99999999999999999999"
                         ^ String.sub l j (String.length l - j))
                 ls))
    | Reorder_sections -> (
        match where is_section_line ls with
        | [] -> append_garbage r text
        | idxs ->
            let i = List.nth idxs (int r (List.length idxs)) in
            let line = List.nth ls i in
            let rest = List.filteri (fun j _ -> j <> i) ls in
            let pos = int r (List.length rest + 1) in
            let before = List.filteri (fun j _ -> j < pos) rest in
            let after = List.filteri (fun j _ -> j >= pos) rest in
            unlines (before @ (line :: after)))
    | Rename_routine -> (
        match pick_index r (where is_routine_line ls) with
        | None -> append_garbage r text
        | Some i ->
            unlines
              (replace_line i
                 (fun _ -> Printf.sprintf "routine ghost_%d" (int r 100000))
                 ls))
    | Drop_registration -> (
        match where is_counter_line ls with
        | [] -> append_garbage r text
        | idxs ->
            let drop = List.filteri (fun j _ -> j <= int r (List.length idxs)) idxs in
            unlines (List.filteri (fun j _ -> not (List.mem j drop)) ls))
    | Duplicate_registration -> (
        match where is_counter_line ls with
        | [] -> append_garbage r text
        | idxs ->
            let dup = List.filteri (fun j _ -> j <= int r (List.length idxs)) idxs in
            unlines
              (List.concat
                 (List.mapi (fun j l -> if List.mem j dup then [ l; l ] else [ l ]) ls)))
    | Garbage_line ->
        let pos = int r (List.length ls + 1) in
        let before = List.filteri (fun j _ -> j < pos) ls in
        let after = List.filteri (fun j _ -> j >= pos) ls in
        unlines (before @ (garbage r :: after))
  in
  if out = text && text <> "" then append_garbage r text else out
