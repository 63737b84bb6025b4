(* Reflected CRC-32 with polynomial 0xEDB88320, computed on native ints
   (a 32-bit value fits unboxed) and converted to [int32] only at the
   interface. Slice-by-8: [tables] holds eight 256-entry tables end to
   end, table [k] advancing a byte's contribution past [k] more zero
   bytes, so each step folds eight input bytes with eight independent
   lookups instead of a chain of eight. Wire frames, store objects and
   profile-dump sections run it over hundreds of kilobytes. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

let[@inline] lookup k idx = Array.unsafe_get tables ((k lsl 8) lor idx)
let[@inline] byte s i = Char.code (String.unsafe_get s i)

let update_sub crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc.substring";
  let n = pos + len in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  let i = ref pos in
  while !i + 8 <= n do
    let j = !i and x = !c in
    c :=
      lookup 7 ((x lxor byte s j) land 0xFF)
      lxor lookup 6 (((x lsr 8) lxor byte s (j + 1)) land 0xFF)
      lxor lookup 5 (((x lsr 16) lxor byte s (j + 2)) land 0xFF)
      lxor lookup 4 ((x lsr 24) lxor byte s (j + 3))
      lxor lookup 3 (byte s (j + 4))
      lxor lookup 2 (byte s (j + 5))
      lxor lookup 1 (byte s (j + 6))
      lxor lookup 0 (byte s (j + 7));
    i := j + 8
  done;
  for j = !i to n - 1 do
    c := lookup 0 ((!c lxor byte s j) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let update crc s = update_sub crc s 0 (String.length s)
let string s = update 0l s
let substring s pos len = update_sub 0l s pos len

let to_hex crc = Printf.sprintf "%08lx" crc

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let of_hex s =
  if String.length s <> 8 || not (String.for_all is_hex s) then None
  else try Some (Int32.of_string ("0x" ^ s)) with Failure _ -> None
