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

let cnf_of_aig aig solver =
  (* variable of node n is n+1; node 0 (constant false) pinned by a unit *)
  let n = Aig.num_nodes aig in
  for _ = 1 to n do
    ignore (Sat.new_var solver)
  done;
  Sat.add_clause solver [ -1 ];
  for node = Aig.num_inputs aig + 1 to n - 1 do
    let l0, l1 = Aig.fanins aig node in
    let dim l =
      let v = Aig.lit_node l + 1 in
      if Aig.lit_phase l then -v else v
    in
    let x = node + 1 and a = dim l0 and b = dim l1 in
    Sat.add_clause solver [ -x; a ];
    Sat.add_clause solver [ -x; b ];
    Sat.add_clause solver [ x; -a; -b ]
  done

let sweep ?(words = 16) ?(max_rounds = 64) ?(max_sat_checks = 5000) ~rng aig =
  let n = Aig.num_nodes aig in
  let ni = Aig.num_inputs aig in
  let uf = Uf.create n in
  let solver = Sat.create () in
  cnf_of_aig aig solver;
  let miter_cache = Hashtbl.create 256 in
  let sat_checks = ref 0 in
  (* pattern blocks: each is one word per input *)
  let blocks = ref [] in
  for _ = 1 to words do
    blocks := Array.init ni (fun _ -> Rng.bits64 rng) :: !blocks
  done;
  (* The AIG is frozen for the whole sweep and blocks are only ever
     prepended, so node values are computed once per block and reused
     across refinement rounds; [sim_cache] stays aligned with the suffix
     of [!blocks] already simulated. *)
  let soa = Ksim.soa_of_aig aig in
  let sim_cache = ref [] in
  let cached_len = ref 0 in
  let simulate_blocks () =
    let total = List.length !blocks in
    let rec take k l =
      if k = 0 then []
      else match l with [] -> [] | x :: tl -> x :: take (k - 1) tl
    in
    let fresh =
      List.map (fun blk -> Soa.node_values soa blk)
        (take (total - !cached_len) !blocks)
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
    let t =
      match Hashtbl.find_opt miter_cache (a, b) with
      | Some t -> t
      | None ->
          let t = Sat.new_var solver in
          let va = a + 1 and vb = b + 1 in
          (* t <-> va xor vb *)
          Sat.add_clause solver [ -t; va; vb ];
          Sat.add_clause solver [ -t; -va; -vb ];
          Sat.add_clause solver [ t; -va; vb ];
          Sat.add_clause solver [ t; va; -vb ];
          Hashtbl.replace miter_cache (a, b) t;
          t
    in
    (* if phase, equality means the miter is satisfied everywhere: check
       that t can be false; if not phase, check that t can be true *)
    let assumption = if phase then -t else t in
    match Sat.solve ~assumptions:[ assumption ] solver with
    | Sat.Unsat -> `Equal
    | Sat.Sat ->
        let cex = Array.make ni false in
        for i = 0 to ni - 1 do
          cex.(i) <- Sat.value solver (i + 2)
        done;
        `Counterexample cex
  in
  let round = ref 0 in
  let progress = ref true in
  while !progress && !round < max_rounds && !sat_checks < max_sat_checks do
    incr round;
    progress := false;
    (* signatures over all pattern blocks *)
    let sims = Instr.span ~name:"fraig.sim" (fun () -> simulate_blocks ()) in
    Instr.count "fraig.sim-words" (List.length !blocks * n);
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
    Instr.span ~name:"fraig.sat" (fun () ->
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
    Instr.count "fraig.classes" (Hashtbl.length classes);
    Instr.count "fraig.sat-calls" (!sat_checks - checks_before);
    Instr.count "fraig.proved" !proved;
    Instr.count "fraig.refuted" (List.length !new_cexs);
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
  Instr.count "fraig.rounds" !round;
  (* rebuild with the proven substitutions *)
  Instr.span ~name:"fraig.rebuild" @@ fun () ->
  let out = Aig.create ~num_inputs:ni ~num_outputs:(Aig.num_outputs aig) in
  let map = Array.make n Aig.lit_false in
  for i = 0 to ni - 1 do
    map.(1 + i) <- Aig.input_lit out i
  done;
  let resolve node =
    let root, ph = Uf.find uf node in
    if root < node then map.(root) lxor (if ph then 1 else 0)
    else map.(node)
  in
  let map_lit l =
    resolve (Aig.lit_node l) lxor (l land 1)
  in
  for node = ni + 1 to n - 1 do
    let root, ph = Uf.find uf node in
    if root < node then map.(node) <- map.(root) lxor (if ph then 1 else 0)
    else begin
      let l0, l1 = Aig.fanins aig node in
      map.(node) <- Aig.and_lit out (map_lit l0) (map_lit l1)
    end
  done;
  for o = 0 to Aig.num_outputs aig - 1 do
    Aig.set_output out o (map_lit (Aig.output aig o))
  done;
  Aig.compact out
