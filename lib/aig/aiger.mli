(** AIGER interchange (ASCII [aag] variant, combinational subset).

    The de-facto exchange format of the logic-synthesis and model-checking
    world; reading and writing it lets this library trade circuits with
    ABC, aigtoaig, nuXmv and friends. Latches are not produced and are
    rejected on input (the contest circuits are combinational). *)

val write : ?comment:string -> Aig.t -> string
(** Serialise to ASCII AIGER. Input/output symbol entries [i<k>]/[o<k>] are
    emitted with generic names. *)

val read : string -> Aig.t
(** Parse ASCII AIGER. Raises [Failure] on malformed input or on a file
    with latches. *)

val read_file : string -> Aig.t
