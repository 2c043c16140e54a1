(** Reduced ordered binary decision diagrams.

    A hash-consed ROBDD package over a fixed variable universe, with the
    usual apply operators and the Minato–Morreale irredundant SOP (ISOP)
    extraction. In the reproduction it plays the role of ABC's [collapse]:
    a learned (or exactly enumerated) function is collapsed to a BDD and
    re-expanded to an irredundant cover before structural synthesis.

    A manager fixes the variable count; nodes belong to their manager.
    The variable order is the identity (variable 0 at the top). *)

type man
(** Node manager: unique table + operation caches. *)

type node
(** A BDD node handle (valid within its manager). *)

val man : nvars:int -> man
(** A fresh manager over [nvars] variables. Its unique table and
    operation caches start small and grow as they fill, so a manager
    that collapses a small function stays small. *)

val zero : man -> node
val one : man -> node
val var : man -> int -> node
(** [var m i] — the function of variable [i]. *)

val nvar : man -> int -> node
(** Complement of [var]. *)

val not_ : man -> node -> node
val and_ : man -> node -> node -> node
val or_ : man -> node -> node -> node
val xor_ : man -> node -> node -> node
val ite : man -> node -> node -> node -> node

val equal : node -> node -> bool
val is_const : man -> node -> bool option
(** [Some b] for a terminal, [None] otherwise. *)

val cofactor : man -> node -> int -> bool -> node

val of_cover : man -> Lr_cube.Cover.t -> node

val of_truth_table : man -> vars:int array -> (int -> bool) -> node
(** [of_truth_table m ~vars f] builds the function whose value on an
    assignment is [f minterm], where bit [j] of [minterm] is the value of
    variable [vars.(j)]. [vars] must be strictly increasing; variables
    outside [vars] are don't-cares. Linear in [2^|vars|]. *)

val eval : man -> node -> Lr_bitvec.Bv.t -> bool

val support : man -> node -> int list

val size : man -> node -> int
(** Number of distinct internal nodes reachable from the root. *)

val count_minterms : man -> node -> float
(** Number of satisfying assignments over the full universe. *)

val isop : man -> node -> Lr_cube.Cover.t
(** Irredundant sum-of-products of the function (Minato–Morreale, with the
    lower and upper bound both equal to the function). *)

val isop_between : man -> lower:node -> upper:node -> Lr_cube.Cover.t
(** ISOP of any function [f] with [lower <= f <= upper]; the don't-care
    flexibility usually yields fewer cubes. Requires [lower -> upper]. *)

val isop_bounded :
  man -> max_cubes:int -> lower:node -> upper:node -> Lr_cube.Cover.t option
(** Like {!isop_between} but gives up (returns [None]) as soon as more than
    [max_cubes] cubes have been produced — parity-like functions have tiny
    BDDs yet exponential SOPs, and callers need to detect that cheaply. *)

(** {2 Structure access}

    For synthesising a BDD directly as a multiplexer network (the compact
    realisation when the SOP explodes). Terminals have no variable or
    children. *)

val node_id : node -> int
(** Stable id, usable as a hash key within one manager. *)

val top_var : man -> node -> int option
(** Branching variable; [None] on terminals. *)

val low : man -> node -> node
val high : man -> node -> node
(** Children; fail on terminals. *)

(** {2 Telemetry} *)

val num_nodes : man -> int
(** Internal nodes hash-consed into this manager so far (terminals
    excluded) — a measure of total BDD work, monotone over the
    manager's lifetime. *)

val record_counters : man -> unit
(** Emit [bdd.nodes] and [bdd.cache-hits] counters for this manager to
    {!Lr_instr.Instr} (attributed to the current span). Call once when
    done with a manager; calling repeatedly double-counts. *)
