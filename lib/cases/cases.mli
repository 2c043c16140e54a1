(** The 20 benchmark IO-generators.

    The 2019 contest benchmarks are proprietary industrial designs; this
    module regenerates their {e structure}: for every row of the paper's
    Table II there is a case with the same name, application category and
    PI/PO counts, built deterministically from a per-case seed:

    - {b NEQ} — miters of non-equivalent logic cones: pairs of similar
      cones compared by XOR/OR structures; the hardest instances hide wide
      parities, which no sampling-based learner can compress.
    - {b ECO} — patch / logic-difference functions: sparse-support random
      cones of varying depth per output.
    - {b DIAG} — semantic conditions over named bus variables: comparator
      predicates (vector-vector and vector-constant), sometimes hidden
      behind a gating scalar so that only the propagation-cube machinery
      can expose them.
    - {b DATA} — arithmetic datapath recognition: linear combinations
      [N_z = sum a_i N_vi + b] over named input vectors.

    NEQ/ECO signals carry unstructured names (grouping finds nothing);
    DIAG/DATA signals are named [bus[i]]-style so that name-based grouping
    and template matching can do their work, exactly as in the contest. *)

type category = NEQ | ECO | DIAG | DATA

val category_to_string : category -> string

type spec = {
  name : string;  (** [case_1] .. [case_20] *)
  category : category;
  num_inputs : int;
  num_outputs : int;
  hidden : bool;  (** the contest's hidden cases, marked * in Table II *)
  seed : int;
}

val specs : spec list
(** All 20 cases in Table II order. *)

val extension_specs : spec list
(** Extra benchmarks for the generalized template families implemented as
    the paper's future work: [ext_bitwise] (bitwise vector operators) and
    [ext_shift] (logical shift and rotation). *)

val find : string -> spec
(** Look a case up by name. Raises [Not_found]. *)

val build : spec -> Lr_netlist.Netlist.t
(** The golden circuit. Deterministic in [spec.seed]. *)

val blackbox : ?budget:int -> ?deadline_s:float -> spec -> Lr_blackbox.Blackbox.t
(** The case wrapped behind the contest query interface. *)

val resolve :
  ?budget:int ->
  string ->
  Lr_blackbox.Blackbox.t * Lr_netlist.Netlist.t option
(** A case name, or else a circuit file ([.blif] read as BLIF, anything
    else in the native text format), as a black box and its golden
    circuit — what [learn], [score] and [lr_serve] jobs run on. Raises
    [Failure] when [name] is neither; a file that does not parse raises
    its reader's exception. *)

(** {2 Parametric generators}

    The building blocks behind the 20 cases, exposed so users can grow
    their own benchmark families (e.g. difficulty sweeps). All are
    deterministic in [seed]. *)

val random_eco :
  seed:int ->
  num_inputs:int ->
  num_outputs:int ->
  support:int ->
  gates:int ->
  xor_prob:float ->
  Lr_netlist.Netlist.t
(** Sparse-support random cones per output (the ECO patch shape).
    [xor_prob] raises parity content — and learning difficulty. *)

val random_neq :
  seed:int ->
  num_inputs:int ->
  num_outputs:int ->
  support:int ->
  gates:int ->
  rare_width:int ->
  parities:int ->
  parity_width:int ->
  Lr_netlist.Netlist.t
(** Miter-difference outputs: two cones XORed under a [rare_width]-literal
    guard; the first [parities] outputs are raw [parity_width]-wide
    parities (unlearnable by sampling learners). *)

type predicate = [ `Eq | `Ne | `Lt | `Le | `Gt | `Ge ]

type diag_output =
  | Cmp of predicate * string * [ `V of string | `C of int ]
      (** predicate over a named bus, against another bus or a constant *)
  | Gated_cmp of predicate * string * string * int
      (** bus-bus predicate ANDed with scalar #k (hidden comparator) *)
  | Scalar_cone of int * int  (** random cone: support, gates *)

val random_diag :
  seed:int ->
  vectors:(string * int) list ->
  num_scalars:int ->
  outputs:diag_output list ->
  Lr_netlist.Netlist.t
(** Bus-condition extraction circuits (the DIAG shape). [vectors] declares
    named buses as [(base, width)]. *)

val random_data :
  vectors:(string * int) list ->
  num_scalars:int ->
  width:int ->
  terms:(int * string) list ->
  offset:int ->
  Lr_netlist.Netlist.t
(** Linear datapath [z = sum a_i * N_vi + offset (mod 2^width)] over named
    buses (the DATA shape). Deterministic — no randomness needed. *)
