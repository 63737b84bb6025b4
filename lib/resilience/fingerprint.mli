(** Stable structural hashes of routines and blocks, the anchors for
    validating a profile against the program it is applied to and for
    matching a stale profile onto an edited program.

    Two block hashes are kept, following the strict/loose laddering of
    stale-profile matchers: the {e strict} hash covers every instruction
    with its operands, so any edit changes it; the {e loose} hash covers
    only the shape (opcode kinds and the terminator arity), so constant
    tweaks and register renamings survive. The routine {e fingerprint}
    folds every strict block hash together with the CFG edge structure —
    it is the "is this exactly the program the profile came from?" bit
    stored in the v2 profile header.

    All hashes are FNV-1a over an explicit serialization, so they are
    stable across runs, OCaml versions and architectures (values are
    truncated to 62 bits to stay positive on 64-bit [int]). *)

val block_strict : Ppp_ir.Ir.block -> int
val block_loose : Ppp_ir.Ir.block -> int

val routine : Ppp_ir.Ir.routine -> int
(** Fingerprint of the whole routine: block count, every block's strict
    hash in order, and the (src, dst) list of CFG edges. *)

val to_hex : int -> string
val of_hex : string -> int option
