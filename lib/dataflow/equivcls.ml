module N = Lr_netlist.Netlist
module Sat = Lr_sat.Sat
module Rng = Lr_bitvec.Rng
module Instr = Lr_instr.Instr
module Soa = Lr_kernel.Soa

(* Union-find over nodes with a phase bit relative to the parent; roots
   are the smallest node id of their class (same discipline as the AIG
   fraig pass). *)
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

let cnf_of_netlist c solver =
  let n = N.num_nodes c in
  for _ = 1 to n do
    ignore (Sat.new_var solver)
  done;
  (* x <-> a /\ b, with operand literals already signed *)
  let and2 x a b =
    Sat.add_clause solver [ -x; a ];
    Sat.add_clause solver [ -x; b ];
    Sat.add_clause solver [ x; -a; -b ]
  in
  let xor2 x a b =
    Sat.add_clause solver [ -x; a; b ];
    Sat.add_clause solver [ -x; -a; -b ];
    Sat.add_clause solver [ x; -a; b ];
    Sat.add_clause solver [ x; a; -b ]
  in
  for node = 0 to n - 1 do
    let x = node + 1 in
    match N.gate c node with
    | N.Const false -> Sat.add_clause solver [ -x ]
    | N.Const true -> Sat.add_clause solver [ x ]
    | N.Input _ -> ()
    | N.Not a ->
        Sat.add_clause solver [ -x; -(a + 1) ];
        Sat.add_clause solver [ x; a + 1 ]
    | N.And2 (a, b) -> and2 x (a + 1) (b + 1)
    | N.Nand2 (a, b) -> and2 (-x) (a + 1) (b + 1)
    | N.Or2 (a, b) -> and2 (-x) (-(a + 1)) (-(b + 1))
    | N.Nor2 (a, b) -> and2 x (-(a + 1)) (-(b + 1))
    | N.Xor2 (a, b) -> xor2 x (a + 1) (b + 1)
    | N.Xnor2 (a, b) -> xor2 (-x) (a + 1) (b + 1)
  done

let compute ?(words = 16) ?(max_rounds = 32) ?(max_sat_checks = 2000) ~rng
    c =
  let n = N.num_nodes c in
  let ni = N.num_inputs c in
  let uf = Uf.create (max n 1) in
  let solver = Sat.create () in
  cnf_of_netlist c solver;
  let miter_cache = Hashtbl.create 256 in
  let sat_calls = ref 0 and proved = ref 0 and refuted = ref 0 in
  let blocks = ref [] in
  for _ = 1 to words do
    blocks := Array.init ni (fun _ -> Rng.bits64 rng) :: !blocks
  done;
  (* the netlist is frozen during [compute] and blocks are only prepended:
     each block is simulated once and its node values are reused across
     refinement rounds (the sim counter still advances as if every block
     were resimulated) *)
  let soa = Soa.of_netlist c in
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
    Instr.count "dataflow.sim-words" (total * n);
    Instr.count "kernel.sim-cached-words" (!cached_len * n);
    sim_cache := fresh @ !sim_cache;
    cached_len := total;
    !sim_cache
  in
  let refuted_pairs = Hashtbl.create 256 in
  let prove_equal a b phase =
    (* a = b xor phase?  UNSAT of the miter under the right assumption *)
    incr sat_calls;
    let t =
      match Hashtbl.find_opt miter_cache (a, b) with
      | Some t -> t
      | None ->
          let t = Sat.new_var solver in
          let va = a + 1 and vb = b + 1 in
          Sat.add_clause solver [ -t; va; vb ];
          Sat.add_clause solver [ -t; -va; -vb ];
          Sat.add_clause solver [ t; -va; vb ];
          Sat.add_clause solver [ t; va; -vb ];
          Hashtbl.replace miter_cache (a, b) t;
          t
    in
    let assumption = if phase then -t else t in
    match Sat.solve ~assumptions:[ assumption ] solver with
    | Sat.Unsat -> `Equal
    | Sat.Sat ->
        let cex = Array.make ni false in
        for i = 0 to ni - 1 do
          cex.(i) <- Sat.value solver (2 + i + 1)
        done;
        `Counterexample cex
  in
  let round = ref 0 in
  let progress = ref true in
  while !progress && !round < max_rounds && !sat_calls < max_sat_checks do
    incr round;
    progress := false;
    let sims =
      Instr.span ~name:"dataflow.sim" (fun () -> simulate_blocks ())
    in
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
    (* deterministic order: classes sorted by their smallest member *)
    let class_list =
      Hashtbl.fold (fun _ members acc -> List.rev members :: acc) classes []
      |> List.sort (fun a b -> compare (List.hd a) (List.hd b))
    in
    let new_cexs = ref [] in
    let checks_before = !sat_calls in
    Instr.span ~name:"dataflow.sat" (fun () ->
        List.iter
          (fun members ->
            match members with
            | [] | [ _ ] -> ()
            | rep :: rest ->
                List.iter
                  (fun m ->
                    if
                      !sat_calls < max_sat_checks
                      && not (Hashtbl.mem refuted_pairs (rep, m))
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
                          Hashtbl.replace refuted_pairs (rep, m) ();
                          incr refuted;
                          new_cexs := cex :: !new_cexs
                    end)
                  rest)
          class_list);
    Instr.count "dataflow.sat-calls" (!sat_calls - checks_before);
    (* counterexamples become new simulation patterns, 64 per word *)
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
  Instr.count "dataflow.rounds" !round;
  Instr.count "dataflow.proved" !proved;
  Instr.count "dataflow.refuted" !refuted;
  let repr =
    Array.init n (fun node ->
        let root, ph = Uf.find uf node in
        (2 * root) lor if ph then 1 else 0)
  in
  { repr; proved = !proved; refuted = !refuted; sat_calls = !sat_calls; rounds = !round }
