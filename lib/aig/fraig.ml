module Rng = Lr_bitvec.Rng
module Sat = Lr_sat.Sat
module Instr = Lr_instr.Instr
module Soa = Lr_kernel.Soa

(* Signature blocks are unboxed: node [u]'s word sits at byte [8 * u]
   ([Soa.node_words]). *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let[@inline] word b u = get64u b (8 * u)

(* Union-find over nodes with a phase bit relative to the parent.
   Roots are always the smallest node id of their class, so substituting a
   node by its root never creates a cycle. *)
module Uf = struct
  type t = { parent : int array; phase : bool array }

  let create n = { parent = Array.init n Fun.id; phase = Array.make n false }
  let is_root t n = t.parent.(n) = n

  let rec find t n =
    if t.parent.(n) = n then n, false
    else begin
      let root, ph = find t t.parent.(n) in
      t.parent.(n) <- root;
      t.phase.(n) <- t.phase.(n) <> ph;
      root, t.phase.(n)
    end

  (* union [a] and [b] given that  a = b xor phase *)
  let union t a b phase =
    let ra, pa = find t a and rb, pb = find t b in
    if ra <> rb then begin
      let rel = pa <> pb <> phase in
      if ra < rb then begin
        t.parent.(rb) <- ra;
        t.phase.(rb) <- rel
      end
      else begin
        t.parent.(ra) <- rb;
        t.phase.(ra) <- rel
      end
    end
end

(* Class buckets keyed by a hash the loop computes over every signature
   word; [Hashtbl.hash] would read only a few words of a signature. *)
module Buckets = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h land max_int
end)

type t = {
  repr : int array;
  proved : int;
  refuted : int;
  sat_calls : int;
  rounds : int;
}

let repr_node t n = t.repr.(n) lsr 1
let repr_phase t n = t.repr.(n) land 1 = 1

let classes ~layer ?(words = 16) ?(max_rounds = 64) ?(max_sat_checks = 5000)
    ~rng soa =
  let name suffix = layer ^ suffix in
  let n = Soa.num_nodes soa in
  let ni = Soa.num_inputs soa in
  let uf = Uf.create n in
  let solver = Sat.create () in
  (* one variable per node, and room for as many miters *)
  Sat.reserve solver (2 * n);
  Soa.encode soa solver;
  let fanin = Soa.transitive_fanin soa in
  let input_of = Array.make n (-1) in
  for i = 0 to ni - 1 do
    List.iter (fun r -> input_of.(r) <- i) (Soa.input_readers soa i)
  done;
  let seeds =
    Array.init words (fun _ -> Array.init ni (fun _ -> Rng.bits64 rng))
  in
  (* Signature blocks: [word !sigs.(b) node] is the node's value under
     block [b]. The seed blocks come first, then every counterexample
     block in arrival order; blocks are never dropped, so a pair one
     block separates never shares a class again. *)
  let block () = Bytes.create (8 * n) in
  let sigs = ref (Array.make (max 1 (2 * words)) Bytes.empty) in
  let nsigs = ref 0 in
  let push vals =
    if !nsigs = Array.length !sigs then begin
      let grown = Array.make (2 * !nsigs) Bytes.empty in
      Array.blit !sigs 0 grown 0 !nsigs;
      sigs := grown
    end;
    !sigs.(!nsigs) <- vals;
    incr nsigs
  in
  (* A node's signature is complemented to canonical phase when its
     first pattern is 1, so a node and its complement share a class. *)
  let flip u = !nsigs > 0 && Int64.logand (word !sigs.(0) u) 1L = 1L in
  let hash u =
    let c = if flip u then -1L else 0L in
    let s = !sigs in
    let h = ref 0 in
    for b = 0 to !nsigs - 1 do
      let w = Int64.logxor (word s.(b) u) c in
      let x =
        Int64.to_int w lxor Int64.to_int (Int64.shift_right_logical w 32)
      in
      h := (!h lxor x) * 0x100000001b3
    done;
    !h lxor (!h lsr 29)
  in
  let same_signature u v =
    let d = if flip u <> flip v then -1L else 0L in
    let s = !sigs in
    let b = ref 0 in
    while
      !b < !nsigs
      && Int64.equal (Int64.logxor (word s.(!b) u) (word s.(!b) v)) d
    do
      incr b
    done;
    !b = !nsigs
  in
  (* Classes of the current round: a table from signature hash to the
     first (smallest) node of each class with that hash, and per node
     the next member of its class in ascending order; [tail.(r) >= 0]
     marks [r] as the head of a class. *)
  let heads = Buckets.create (max 16 n) in
  let next = Array.make n (-1) and tail = Array.make n (-1) in
  let bucket () =
    Buckets.clear heads;
    let classes = ref 0 in
    for u = 0 to n - 1 do
      next.(u) <- -1;
      tail.(u) <- -1;
      if Uf.is_root uf u then begin
        let h = hash u in
        match
          List.find_opt (fun r -> same_signature r u) (Buckets.find_all heads h)
        with
        | Some r ->
            next.(tail.(r)) <- u;
            tail.(r) <- u
        | None ->
            Buckets.add heads h u;
            tail.(u) <- u;
            incr classes
      end
    done;
    !classes
  in
  (* The pending counterexample block: it starts as a copy of a seed
     block, and each counterexample overwrites the bits of its cone's
     inputs in the next lane, so the inputs the SAT call never decided
     keep a seed pattern. It is resimulated after every counterexample
     and pushed onto [sigs] when full, or at the end of the round. *)
  let pend_in = Array.make ni 0L in
  let pend_vals = ref (block ()) in
  let lanes = ref 0 in
  let pend_blocks = ref 0 in
  let start_pending () =
    if words > 0 then
      Array.blit seeds.(!pend_blocks mod words) 0 pend_in 0 ni;
    lanes := 0
  in
  let flush () =
    push !pend_vals;
    pend_vals := block ();
    incr pend_blocks;
    start_pending ()
  in
  start_pending ();
  let sat_checks = ref 0 in
  let proved_total = ref 0 and refuted_total = ref 0 in
  let round = ref 0 in
  let progress = ref true in
  while !progress && !round < max_rounds && !sat_checks < max_sat_checks do
    incr round;
    progress := false;
    Instr.span ~name:(name ".sim") (fun () ->
        (* counterexample blocks arrive simulated: only the seeds are new *)
        Instr.count "kernel.sim-cached-words" (!nsigs * n);
        if !round = 1 then
          Array.iter
            (fun b ->
              let vals = block () in
              Soa.node_words soa b vals;
              push vals)
            seeds);
    Instr.count (name ".sim-words") (!nsigs * n);
    let classes = bucket () in
    let round_first = !nsigs in
    (* do this round's counterexamples already separate the pair? *)
    let separated a b phase =
      let d = if phase then -1L else 0L in
      let differ v =
        not (Int64.equal (Int64.logxor (word v a) (word v b)) d)
      in
      let sep = ref (!lanes > 0 && differ !pend_vals) in
      for k = round_first to !nsigs - 1 do
        if differ !sigs.(k) then sep := true
      done;
      !sep
    in
    let checks_before = !sat_checks in
    let conflicts_before = Sat.stats_conflicts solver in
    let restarts_before = Sat.stats_restarts solver in
    let proved = ref 0 and refuted = ref 0 and resim_refuted = ref 0 in
    (* a = b xor phase ?  the miter [t <-> a xor b] decides it, branching
       only on the two nodes' fanin *)
    let prove a b phase =
      incr sat_checks;
      let t = Sat.new_var solver in
      Soa.xor_clauses solver t (a + 1) (b + 1);
      let cone = fanin [ a; b ] in
      (* if phase, equality means the miter is satisfied everywhere: check
         that t can be false; if not phase, check that t can be true *)
      match
        Sat.solve
          ~assumptions:[ (if phase then -t else t) ]
          ~decide:(Array.map succ cone) solver
      with
      | Sat.Unsat ->
          Uf.union uf a b phase;
          incr proved
      | Sat.Sat ->
          incr refuted;
          let bit = Int64.shift_left 1L !lanes in
          Array.iter
            (fun x ->
              let i = input_of.(x) in
              if i >= 0 then
                pend_in.(i) <-
                  (if Sat.value solver (x + 1) then Int64.logor pend_in.(i) bit
                   else Int64.logand pend_in.(i) (Int64.lognot bit)))
            cone;
          Soa.node_words soa pend_in !pend_vals;
          incr lanes;
          if !lanes = 64 then flush ()
    in
    Instr.span ~name:(name ".sat") (fun () ->
        (* classes in ascending representative id, members ascending *)
        for rep = 0 to n - 1 do
          if tail.(rep) >= 0 then begin
            let m = ref next.(rep) in
            while !m >= 0 do
              if !sat_checks < max_sat_checks then begin
                let phase = flip rep <> flip !m in
                if separated rep !m phase then incr resim_refuted
                else prove rep !m phase
              end;
              m := next.(!m)
            done
          end
        done);
    if !lanes > 0 then flush ();
    progress := !proved > 0 || !nsigs > round_first;
    proved_total := !proved_total + !proved;
    refuted_total := !refuted_total + !refuted;
    Instr.count (name ".classes") classes;
    Instr.count (name ".sat-calls") (!sat_checks - checks_before);
    Instr.count (name ".proved") !proved;
    Instr.count (name ".refuted") !refuted;
    Instr.count (name ".resim-refuted") !resim_refuted;
    Instr.count "sat.conflicts" (Sat.stats_conflicts solver - conflicts_before);
    Instr.count "sat.restarts" (Sat.stats_restarts solver - restarts_before)
  done;
  Instr.count (name ".rounds") !round;
  let repr =
    Array.init n (fun node ->
        let root, ph = Uf.find uf node in
        (2 * root) lor Bool.to_int ph)
  in
  {
    repr;
    proved = !proved_total;
    refuted = !refuted_total;
    sat_calls = !sat_checks;
    rounds = !round;
  }

let sweep ?words ?max_rounds ?max_sat_checks ~rng aig =
  let cls =
    classes ~layer:"fraig" ?words ?max_rounds ?max_sat_checks ~rng
      (Ksim.soa_of_aig aig)
  in
  (* rebuild with the proven substitutions *)
  Instr.span ~name:"fraig.rebuild" @@ fun () ->
  let n = Aig.num_nodes aig in
  let ni = Aig.num_inputs aig in
  let out = Aig.create ~num_inputs:ni ~num_outputs:(Aig.num_outputs aig) in
  let map = Array.make n Aig.lit_false in
  for i = 0 to ni - 1 do
    map.(1 + i) <- Aig.input_lit out i
  done;
  let map_lit l = map.(Aig.lit_node l) lxor (l land 1) in
  for node = ni + 1 to n - 1 do
    let r = cls.repr.(node) in
    if r lsr 1 < node then map.(node) <- map.(r lsr 1) lxor (r land 1)
    else begin
      let l0, l1 = Aig.fanins aig node in
      map.(node) <- Aig.and_lit out (map_lit l0) (map_lit l1)
    end
  done;
  for o = 0 to Aig.num_outputs aig - 1 do
    Aig.set_output out o (map_lit (Aig.output aig o))
  done;
  Aig.compact out
