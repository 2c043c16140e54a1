(** Plain-text serialisation of netlists.

    The format is a BLIF-inspired line language:

    {v
    .inputs a b c[0] c[1]
    .outputs z
    .gate 6 = AND 2 3
    .gate 7 = NOT 6
    .po z = 7
    v}

    Gate operands reference node ids of the same file; ids 0 and 1 are the
    false/true constants and id [2 + i] is primary input [i], exactly as in
    {!Netlist}. Signal names may contain any non-whitespace characters. *)

val write : Netlist.t -> string
val read : string -> Netlist.t
(** Raises [Failure] with a line-tagged message on malformed input. *)

val read_file : string -> Netlist.t
