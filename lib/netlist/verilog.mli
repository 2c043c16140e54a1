(** Structural Verilog netlist writer.

    Emits a synthesizable gate-level module (continuous [assign]s over the
    six 2-input primitives and inverters), so learned circuits drop into a
    standard EDA flow. Signal names that are not plain Verilog identifiers
    (e.g. [bus[3]]) are emitted as escaped identifiers. *)

val write : ?module_name:string -> Netlist.t -> string
