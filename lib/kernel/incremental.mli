(** Incremental re-simulation with dirty-cone tracking.

    Holds the node values of one 64-pattern block for a compiled {!Soa}
    circuit and re-simulates only the transitive fanout cone of whatever
    changed — an input word, or a node forced to a hypothetical value (the
    sweep's ODC verification probe). The recomputed set is exactly the
    fanout cone of the seeds, never more (the minimality test in
    [test/test_kernel.ml] pins the set down node for node), and the values
    after any sequence of operations are bit-identical to a full
    re-simulation from scratch. *)

type t

val create : Soa.t -> int64 array -> t
(** [create soa words] — a fresh engine holding [words] (one per input,
    copied) and the node values they simulate to: one full pass, as
    {!load}. *)

val circuit : t -> Soa.t

val load : t -> int64 array -> unit
(** Set every input word and fully re-simulate. *)

val set_input : t -> int -> int64 -> unit
(** Change one input word and re-simulate its cone. *)

val values : t -> int64 array
(** The current node values — a live view, do not mutate. *)

val outputs : t -> int64 array
(** Output words projected from the current values. *)

val last_resim : t -> int list
(** The nodes the last {!set_input} / {!with_forced} recomputed, in
    schedule order ({!load} resets it to the full schedule). *)

type cone = private {
  node : int;  (** the node a probe forces *)
  members : int array;
      (** its transitive fanout in schedule order, [node] itself left
          out: what a forced value there must recompute *)
  outputs : int array;
      (** the primary outputs, ascending, whose node lies in the fanout
          ([node] included): the only outputs a forced value can move *)
}

val cone : Soa.t -> int -> cone
(** [cone soa node] — [node]'s fanout cone, computed once (one
    {!Soa.fanout_cone} pass and one walk of the schedule) for any number
    of {!with_forced} probes on engines over [soa], and for whatever
    else the caller proves about the same node. *)

val with_forced : t -> cone -> int64 -> (t -> 'a) -> 'a
(** [with_forced t cone w f] — hypothetically pin [cone.node]'s value to
    [w], re-simulate [cone.members] (the node itself keeps the forced
    word), run [f], then restore every touched value. During [f],
    {!last_resim} lists the recomputed cone (the forced node excluded).
    [cone] must come from {!cone} on this engine's circuit. *)
