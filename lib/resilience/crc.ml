(* Table-driven reflected CRC-32 with polynomial 0xEDB88320, computed on
   native ints (a 32-bit value fits unboxed) and converted to [int32]
   only at the interface. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update crc s =
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  for i = 0 to String.length s - 1 do
    let idx = (!c lxor Char.code (String.unsafe_get s i)) land 0xFF in
    c := Array.unsafe_get table idx lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let string s = update 0l s

let to_hex crc = Printf.sprintf "%08lx" crc

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let of_hex s =
  if String.length s <> 8 || not (String.for_all is_hex s) then None
  else try Some (Int32.of_string ("0x" ^ s)) with Failure _ -> None
