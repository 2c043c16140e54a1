module N = Lr_netlist.Netlist
module Sat = Lr_sat.Sat
module Rng = Lr_bitvec.Rng
module Instr = Lr_instr.Instr
module Soa = Lr_kernel.Soa
module Fraig = Lr_aig.Fraig

type stats = {
  rounds : int;
  merged : int;
  xor_recovered : int;
  odc_rewrites : int;
  sat_calls : int;
  gates_before : int;
  gates_after : int;
}

let removed st = max 0 (st.gates_before - st.gates_after)

(* ---------------- duplicate-cone merging ---------------- *)

let merge_stage ~rng ~max_sat_checks c =
  let eq =
    Fraig.classes ~layer:"dataflow" ~max_rounds:32 ~max_sat_checks ~rng
      (Soa.of_netlist c)
  in
  let reach = N.reachable c in
  let merged = ref 0 in
  let act node =
    let root = Fraig.repr_node eq node in
    if root = node then Rebuild.Keep
    else begin
      if reach.(node) then incr merged;
      Rebuild.Alias (root, Fraig.repr_phase eq node)
    end
  in
  (* bind before building the tuple: the counter is only final once
     [apply] has run the action callback over every node *)
  let out = Rebuild.apply c act in
  out, !merged, eq.Fraig.sat_calls

(* ---------------- XOR/XNOR structure recovery ---------------- *)

(* The AIG round-trip leaves every XOR as three AND gates plus inverters;
   the contest metric counts all 2-input primitives equally, so rebuilding
   the shape as one Xor2 saves up to two gates per occurrence. *)
let xor_action c z =
  let is_compl x y =
    match N.gate c x, N.gate c y with
    | N.Not u, _ when u = y -> true
    | _, N.Not v when v = x -> true
    | _ -> false
  in
  (* p = And2(a,b) and q = And2 over the complements of {a,b}? *)
  let and_pair p q =
    match N.gate c p, N.gate c q with
    | N.And2 (a, b), N.And2 (d, e) ->
        if (is_compl a d && is_compl b e) || (is_compl a e && is_compl b d)
        then Some (a, b)
        else None
    | _ -> None
  in
  (* fold operand inverters into the output phase *)
  let strip a b ph =
    let rec base x ph =
      match N.gate c x with N.Not y -> base y (not ph) | _ -> x, ph
    in
    let a, pa = base a false in
    let b, pb = base b false in
    Rebuild.Xor (a, b, ph <> pa <> pb)
  in
  match N.gate c z with
  (* ab + (~a)(~b) = XNOR;  NOR of the pair = XOR *)
  | N.Or2 (p, q) -> (
      match and_pair p q with Some (a, b) -> strip a b true | None -> Rebuild.Keep)
  | N.Nor2 (p, q) -> (
      match and_pair p q with Some (a, b) -> strip a b false | None -> Rebuild.Keep)
  (* ~(ab) * ~((~a)(~b)) = XOR — the pure-AND form Aig.to_netlist emits *)
  | N.And2 (u, v) | N.Nand2 (u, v) -> (
      match N.gate c u, N.gate c v with
      | N.Not p, N.Not q -> (
          match and_pair p q with
          | Some (a, b) ->
              let ph = match N.gate c z with N.Nand2 _ -> true | _ -> false in
              strip a b ph
          | None -> Rebuild.Keep)
      | _ -> Rebuild.Keep)
  | _ -> Rebuild.Keep

let xor_stage c =
  let reach = N.reachable c in
  let count = ref 0 in
  let act node =
    match xor_action c node with
    | Rebuild.Keep -> Rebuild.Keep
    | a ->
        if reach.(node) then incr count;
        a
  in
  let out = Rebuild.apply c act in
  out, !count

(* ---------------- ODC resubstitution ---------------- *)

(* Counterexamples kept for a whole [run]: every SAT model that refutes
   an ODC candidate becomes one lane of a 64-lane input block, the
   oldest lane giving way once all 64 are taken. A lane holds the
   model's values of the inputs in the proof's decision set and 0
   elsewhere: no other input reaches the patched cone. Before its SAT
   call a candidate is simulated on this block, on the current netlist,
   so a hit is a concrete witness whichever netlist produced the
   pattern. *)
type refuters = { words : int64 array; mutable count : int }

let lanes r =
  if r.count >= 64 then -1L else Int64.pred (Int64.shift_left 1L r.count)

(* The ODC prover of one scan. Its solver starts with one variable per
   node of the scan's fixed netlist and no clauses; each proof encodes
   the nodes of its decision set that are not encoded yet. A candidate
   [z := m] (inverted when [ph]) adds a patched copy of [z]'s observed
   fanout cone ([Soa.cone]) on fresh variables and one difference
   variable per output the cone reaches, asserts their OR under a fresh
   activation literal, and asks SAT for a distinguishing input; the unit
   [-act] then retires the OR, leaving clauses that only define fresh
   variables. The decision set is the fanin of the cone's original nodes
   and of [m] plus the fresh variables: closed under fanin, so each
   verdict is exact. A model that refutes the candidate is kept in
   [refuters]. *)
let prover soa c refuters =
  let n = N.num_nodes c in
  let solver =
    lazy
      (let s = Sat.create () in
       for _ = 1 to n do
         ignore (Sat.new_var s)
       done;
       s)
  in
  let encoded = Bytes.make n '\000' in
  let patched = Array.make n 0 in
  let fanin = Soa.transitive_fanin soa in
  fun z (cone : Soa.cone) (m, ph) ->
    if Array.length cone.reached = 0 then true
      (* no output sees the node at all *)
    else begin
      let solver = Lazy.force solver in
      let support = fanin (m :: z :: Array.to_list cone.gates) in
      Array.iter
        (fun k ->
          if Bytes.get encoded k = '\000' then begin
            Bytes.set encoded k '\001';
            Soa.encode_node soa solver ~lit:(k + 1) ~fanin:succ k
          end)
        support;
      let first_fresh = Sat.num_vars solver + 1 in
      let lit k = if patched.(k) <> 0 then patched.(k) else k + 1 in
      patched.(z) <- (if ph then -(m + 1) else m + 1);
      Array.iter
        (fun k ->
          let x = Sat.new_var solver in
          Soa.encode_node soa solver ~lit:x ~fanin:lit k;
          patched.(k) <- x)
        cone.gates;
      let diffs =
        Array.map
          (fun o ->
            let r = N.output c o in
            let t = Sat.new_var solver in
            Soa.xor_clauses solver t (r + 1) (lit r);
            t)
          cone.reached
      in
      patched.(z) <- 0;
      Array.iter (fun k -> patched.(k) <- 0) cone.gates;
      let last_fresh = Sat.num_vars solver in
      let act = Sat.new_var solver in
      Sat.add_clause solver (-act :: Array.to_list diffs);
      let decide =
        Array.append
          (Array.map succ support)
          (Array.init (last_fresh - first_fresh + 1) (fun i -> first_fresh + i))
      in
      let verdict = Sat.solve ~assumptions:[ act ] ~decide solver in
      if verdict = Sat.Sat then begin
        let bit = Int64.shift_left 1L (refuters.count mod 64) in
        let w = refuters.words in
        Array.iteri (fun i x -> w.(i) <- Int64.logand x (Int64.lognot bit)) w;
        Array.iter
          (fun k ->
            match N.gate c k with
            | N.Input i when Sat.value solver (k + 1) ->
                w.(i) <- Int64.logor w.(i) bit
            | _ -> ())
          support;
        refuters.count <- refuters.count + 1
      end;
      Sat.add_clause solver [ -act ];
      verdict = Sat.Unsat
    end

let sim_word_budget = 2_000_000

(* scan nodes from the outputs down for a fanin resubstitution that
   survives the simulation filter and the SAT proof; [emit] receives each
   proven rewrite and decides whether to keep scanning *)
let scan_resubs ~sat_budget ~rng ~refuters ~emit c =
  let n = N.num_nodes c in
  let ni = N.num_inputs c in
  let reach = N.reachable c in
  let blocks = Array.init 8 (fun _ -> Array.init ni (fun _ -> Rng.bits64 rng)) in
  (* one store per pattern block: the candidate filter forces [z] and
     re-runs only its observed fanout cone, computed once per [z], and
     compares only the outputs it reaches. The sim budget below still
     decrements by the cost of resimulating every node above [z], which
     fixes the order and number of candidates visited. *)
  let soa = Soa.of_netlist c in
  let store words =
    Instr.count "dataflow.sim-words" n;
    Soa.store soa words
  in
  let stores = Array.map store blocks in
  (* the refuter block on this netlist: one store, made at the first
     lane and made again whenever another arrives *)
  let refuter = ref None in
  let refuted cone (m, ph) =
    refuters.count > 0
    &&
    let s =
      match !refuter with
      | Some (s, count) when count = refuters.count -> s
      | _ ->
          let s = store refuters.words in
          refuter := Some (s, refuters.count);
          s
    in
    let v = Soa.value s m in
    let w = if ph then Int64.lognot v else v in
    Int64.logand (lanes refuters) (Soa.forced_diff s cone w) <> 0L
  in
  let prove_resub = prover soa c refuters in
  let sim_budget = ref sim_word_budget in
  let sat_used = ref 0 in
  let continue_scan = ref true in
  let z = ref (n - 1) in
  while !continue_scan && !z >= 2 do
    (if reach.(!z) && sat_budget - !sat_used > 0 && !sim_budget > 0 then
       match N.gate c !z with
       | N.Const _ | N.Input _ | N.Not _ -> ()
       | g ->
           let a, b =
             match N.fanins g with [ a; b ] -> a, b | _ -> assert false
           in
           let cone = Soa.cone soa [ !z ] in
           let candidates = [ a, false; b, false; a, true; b, true ] in
           let rec try_cands = function
             | [] -> ()
             | (m, ph) :: rest ->
                 if sat_budget - !sat_used <= 0 || !sim_budget <= 0 then ()
                 else begin
                   sim_budget :=
                     !sim_budget - (Array.length stores * (n - !z));
                   let sim_ok =
                     let ok = ref true in
                     let i = ref 0 in
                     while !ok && !i < Array.length stores do
                       let v = Soa.value stores.(!i) m in
                       let w = if ph then Int64.lognot v else v in
                       ok := Soa.forced_diff stores.(!i) cone w = 0L;
                       incr i
                     done;
                     !ok
                   in
                   if sim_ok then begin
                     (* a refuter hit stands in for the SAT call it saves *)
                     incr sat_used;
                     if refuted cone (m, ph) then begin
                       Instr.count "dataflow.odc-resim-refuted" 1;
                       try_cands rest
                     end
                     else if prove_resub !z cone (m, ph) then begin
                       if not (emit (!z, m, ph)) then continue_scan := false
                     end
                     else try_cands rest
                   end
                   else try_cands rest
                 end
           in
           try_cands candidates);
    decr z
  done;
  !sat_used

let new_refuters c = { words = Array.make (N.num_inputs c) 0L; count = 0 }

let odc_candidates ?(max_sat_checks = 24) ~rng c =
  let found = ref [] in
  let _ =
    scan_resubs ~sat_budget:max_sat_checks ~rng ~refuters:(new_refuters c)
      ~emit:(fun r ->
        found := r :: !found;
        true)
      c
  in
  List.rev !found

let odc_stage ~rng ~refuters ~max_sat_checks c0 =
  let c = ref c0 in
  let applied = ref 0 in
  let sat_total = ref 0 in
  let progress = ref true in
  (* apply one proven rewrite at a time: each proof is against the current
     netlist, so successive rewrites cannot interact unsoundly *)
  while !progress && !sat_total < max_sat_checks do
    progress := false;
    let hit = ref None in
    let used =
      scan_resubs ~sat_budget:(max_sat_checks - !sat_total) ~rng ~refuters
        ~emit:(fun r ->
          hit := Some r;
          false)
        !c
    in
    sat_total := !sat_total + used;
    match !hit with
    | None -> ()
    | Some (z, m, ph) ->
        let act node = if node = z then Rebuild.Alias (m, ph) else Rebuild.Keep in
        c := Rebuild.apply !c act;
        incr applied;
        progress := true
  done;
  !c, !applied, !sat_total

(* ---------------- the sweep driver ---------------- *)

let run ?(max_rounds = 3) ?(max_sat_checks = 2000)
    ?(max_odc_checks = 24) ?verify ~rng c0 =
  let gates_before = N.size c0 in
  let merged = ref 0 in
  let xor_recovered = ref 0 in
  let odc_rewrites = ref 0 in
  let sat_calls = ref 0 in
  let rounds = ref 0 in
  let refuters = new_refuters c0 in
  let checked stage before after changed =
    if changed > 0 then
      match verify with Some v -> v ~stage before after | None -> ()
  in
  (* a stage whose result is larger than its input is discarded *)
  let stage name f c =
    let after, changed, sat = Instr.span ~name (fun () -> f c) in
    sat_calls := !sat_calls + sat;
    if changed > 0 && N.size after > N.size c then c
    else begin
      checked name c after changed;
      after
    end
  in
  let c = ref c0 in
  let progress = ref true in
  while !progress && !rounds < max_rounds do
    incr rounds;
    let size0 = N.size !c in
    (* drop dead nodes first: they would join the merge stage's classes *)
    c := Rebuild.apply !c (fun _ -> Rebuild.Keep);
    c :=
      stage "sweep.merge"
        (fun c ->
          let out, k, sat = merge_stage ~rng ~max_sat_checks c in
          merged := !merged + k;
          out, k, sat)
        !c;
    c :=
      stage "sweep.xor"
        (fun c ->
          let out, k = xor_stage c in
          xor_recovered := !xor_recovered + k;
          out, k, 0)
        !c;
    c :=
      stage "sweep.odc"
        (fun c ->
          let out, k, sat =
            odc_stage ~rng ~refuters ~max_sat_checks:max_odc_checks c
          in
          odc_rewrites := !odc_rewrites + k;
          out, k, sat)
        !c;
    progress := N.size !c < size0
  done;
  Instr.count "sweep.removed" (max 0 (gates_before - N.size !c));
  ( !c,
    {
      rounds = !rounds;
      merged = !merged;
      xor_recovered = !xor_recovered;
      odc_rewrites = !odc_rewrites;
      sat_calls = !sat_calls;
      gates_before;
      gates_after = N.size !c;
    } )
