(** Folded-stacks flamegraph export (format [lr-folded/v1]).

    One line per span with positive self time:
    [root;child;leaf <count>], where the stack is the span path with
    ['/'] replaced by [';'] and the count is the span's self time in
    integer microseconds. The output is the plain folded format
    consumed by speedscope ("Import" a [.folded] file) and by
    flamegraph.pl — no header lines, nothing else in the file. *)

val lines : Profile.t -> string list
(** In first-open order (parents before children); spans whose self
    time rounds to 0 µs are omitted. *)

val to_string : Profile.t -> string
