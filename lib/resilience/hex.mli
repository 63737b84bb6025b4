(** Byte strings as hex text, in time linear in their length: the one
    codec for every binary-unsafe field the daemon writes into a text
    format (store keys in object headers and journal lines, marshaled
    plan bundles in request and reply JSON). *)

val encode : string -> string
(** Two lowercase hex digits per byte, most significant nibble first. *)

val decode : string -> string option
(** Inverts {!encode}. Upper- and lowercase digits are both accepted;
    an odd length or any character outside [[0-9a-fA-F]] gives [None]. *)
