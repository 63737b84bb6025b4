(** Printing of IR to the textual [.pir] format accepted by {!Parse}.
    [Parse.program_of_string (to_string p)] reproduces [p] exactly (a
    property test enforces the round trip). *)

val to_string : Ir.program -> string
(** The program's text, ending in a newline, written into one buffer in
    time linear in its length. *)
