module Rng = Lr_bitvec.Rng
module Sat = Lr_sat.Sat
module Instr = Lr_instr.Instr
module Soa = Lr_kernel.Soa

(* Union-find over nodes with a phase bit relative to the parent.
   Roots are always the smallest node id of their class, so substituting a
   node by its root never creates a cycle. *)
module Uf = struct
  type t = { parent : int array; phase : bool array }

  let create n = { parent = Array.init n Fun.id; phase = Array.make n false }

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
  Soa.encode soa solver;
  let input_var =
    Array.init ni (fun i -> List.hd (Soa.input_readers soa i) + 1)
  in
  let sat_checks = ref 0 in
  let proved_total = ref 0 and refuted_total = ref 0 in
  (* pattern blocks: each is one word per input *)
  let blocks = ref [] in
  for _ = 1 to words do
    blocks := Array.init ni (fun _ -> Rng.bits64 rng) :: !blocks
  done;
  (* The circuit is frozen for the whole loop and blocks are only ever
     prepended, so node values are computed once per block and reused
     across refinement rounds; [sim_cache] stays aligned with the suffix
     of [!blocks] already simulated. *)
  let sim_cache = ref [] in
  let cached_len = ref 0 in
  let simulate_blocks () =
    let total = List.length !blocks in
    let fresh =
      List.filteri (fun i _ -> i < total - !cached_len) !blocks
      |> List.map (Soa.node_values soa)
    in
    Instr.count "kernel.sim-cached-words" (!cached_len * n);
    sim_cache := fresh @ !sim_cache;
    cached_len := total;
    !sim_cache
  in
  let refuted = Hashtbl.create 256 in
  let prove_equal a b phase =
    (* a = b xor phase ?  check SAT of a xor (b xor phase) *)
    incr sat_checks;
    (* each pair is checked once: a proof merges it and a refutation
       bars it, so every check gets a fresh miter variable *)
    let t = Sat.new_var solver in
    Soa.xor_clauses solver t (a + 1) (b + 1);
    (* if phase, equality means the miter is satisfied everywhere: check
       that t can be false; if not phase, check that t can be true *)
    let assumption = if phase then -t else t in
    match Sat.solve ~assumptions:[ assumption ] solver with
    | Sat.Unsat -> `Equal
    | Sat.Sat -> `Counterexample (Array.map (Sat.value solver) input_var)
  in
  let round = ref 0 in
  let progress = ref true in
  while !progress && !round < max_rounds && !sat_checks < max_sat_checks do
    incr round;
    progress := false;
    (* signatures over all pattern blocks *)
    let sims = Instr.span ~name:(name ".sim") (fun () -> simulate_blocks ()) in
    Instr.count (name ".sim-words") (List.length !blocks * n);
    let signature node = List.map (fun v -> v.(node)) sims in
    let canon sig_ =
      match sig_ with
      | [] -> [], false
      | w :: _ ->
          if Int64.logand w 1L = 1L then List.map Int64.lognot sig_, true
          else sig_, false
    in
    let classes = Hashtbl.create 1024 in
    for node = 0 to n - 1 do
      let root, _ = Uf.find uf node in
      if root = node then begin
        let key, _ = canon (signature node) in
        let existing =
          match Hashtbl.find_opt classes key with Some l -> l | None -> []
        in
        Hashtbl.replace classes key (node :: existing)
      end
    done;
    let new_cexs = ref [] in
    let checks_before = !sat_checks in
    let conflicts_before = Sat.stats_conflicts solver in
    let restarts_before = Sat.stats_restarts solver in
    let proved = ref 0 in
    Instr.span ~name:(name ".sat") (fun () ->
        Hashtbl.iter
          (fun _ members ->
            match List.rev members (* ascending ids *) with
            | [] | [ _ ] -> ()
            | rep :: rest ->
                List.iter
                  (fun m ->
                    if
                      !sat_checks < max_sat_checks
                      && not (Hashtbl.mem refuted (rep, m))
                    then begin
                      let _, prep = canon (signature rep) in
                      let _, pm = canon (signature m) in
                      let phase = prep <> pm in
                      match prove_equal rep m phase with
                      | `Equal ->
                          Uf.union uf rep m phase;
                          incr proved;
                          progress := true
                      | `Counterexample cex ->
                          Hashtbl.replace refuted (rep, m) ();
                          new_cexs := cex :: !new_cexs
                    end)
                  rest)
          classes);
    let refuted_now = List.length !new_cexs in
    proved_total := !proved_total + !proved;
    refuted_total := !refuted_total + refuted_now;
    Instr.count (name ".classes") (Hashtbl.length classes);
    Instr.count (name ".sat-calls") (!sat_checks - checks_before);
    Instr.count (name ".proved") !proved;
    Instr.count (name ".refuted") refuted_now;
    Instr.count "sat.conflicts" (Sat.stats_conflicts solver - conflicts_before);
    Instr.count "sat.restarts" (Sat.stats_restarts solver - restarts_before);
    (* pack counterexamples into pattern blocks, 64 per block, so the
       signature length stays proportional to refinement rounds *)
    let rec pack = function
      | [] -> ()
      | cexs ->
          let chunk, rest =
            let rec split k acc = function
              | x :: tl when k < 64 -> split (k + 1) (x :: acc) tl
              | tl -> acc, tl
            in
            split 0 [] cexs
          in
          let chunk = Array.of_list chunk in
          let blk =
            Array.init ni (fun i ->
                let w = ref 0L in
                Array.iteri
                  (fun k cex ->
                    if cex.(i) then w := Int64.logor !w (Int64.shift_left 1L k))
                  chunk;
                !w)
          in
          blocks := blk :: !blocks;
          progress := true;
          pack rest
    in
    pack !new_cexs
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
