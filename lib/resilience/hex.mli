(** Byte strings as hex text, in time linear in their length: the one
    codec for the binary-unsafe field the daemon writes into a text
    format, its store keys in object headers and journal lines. *)

val encode : string -> string
(** Two lowercase hex digits per byte, most significant nibble first. *)

val decode : string -> string option
(** Inverts {!encode}. Upper- and lowercase digits are both accepted;
    an odd length or any character outside [[0-9a-fA-F]] gives [None]. *)
