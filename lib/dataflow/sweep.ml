module N = Lr_netlist.Netlist
module L = Lattice
module Sat = Lr_sat.Sat
module Rng = Lr_bitvec.Rng
module Instr = Lr_instr.Instr
module Soa = Lr_kernel.Soa
module Incremental = Lr_kernel.Incremental

type level = Const_prop | Full

type stats = {
  rounds : int;
  const_folded : int;
  merged : int;
  xor_recovered : int;
  odc_rewrites : int;
  sat_calls : int;
  gates_before : int;
  gates_after : int;
}

let removed st = max 0 (st.gates_before - st.gates_after)

(* ---------------- constant propagation ---------------- *)

let const_stage c =
  let vals = Absint.values c in
  let reach = N.reachable c in
  let folded = ref 0 in
  let act node =
    match N.gate c node with
    | N.Const _ | N.Input _ -> Rebuild.Keep
    | _ -> (
        match L.to_bool vals.(node) with
        | Some b ->
            if reach.(node) then incr folded;
            Rebuild.Const b
        | None -> Rebuild.Keep)
  in
  let out = Rebuild.apply c act in
  out, !folded

(* ---------------- duplicate-cone merging ---------------- *)

let merge_stage ~rng ~max_sat_checks c =
  let eq = Equivcls.compute ~max_sat_checks ~rng c in
  let reach = N.reachable c in
  let merged = ref 0 in
  let act node =
    let root = Equivcls.repr_node eq node in
    if root = node then Rebuild.Keep
    else begin
      if reach.(node) then incr merged;
      Rebuild.Alias (root, Equivcls.repr_phase eq node)
    end
  in
  (* bind before building the tuple: the counter is only final once
     [apply] has run the action callback over every node *)
  let out = Rebuild.apply c act in
  out, !merged, eq.Equivcls.sat_calls

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

let fanout_cone c z =
  let n = N.num_nodes c in
  let cone = Array.make n false in
  cone.(z) <- true;
  for k = z + 1 to n - 1 do
    if List.exists (fun a -> cone.(a)) (N.fanins (N.gate c k)) then
      cone.(k) <- true
  done;
  cone

(* prove that replacing node [z] by old node [m] (inverted when [ph])
   changes no primary output: encode the original netlist once, a patched
   copy of [z]'s fanout cone on fresh variables, and ask SAT for a
   distinguishing input *)
let prove_resub c z (m, ph) =
  let n = N.num_nodes c in
  let cone = fanout_cone c z in
  let observed = ref false in
  for o = 0 to N.num_outputs c - 1 do
    if cone.(N.output c o) then observed := true
  done;
  if not !observed then true (* no output sees the node at all *)
  else begin
    let solver = Sat.create () in
    Equivcls.cnf_of_netlist c solver;
    let patched = Array.make n 0 in
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
    for k = 0 to n - 1 do
      if k = z then patched.(k) <- (if ph then -(m + 1) else m + 1)
      else if not cone.(k) then patched.(k) <- k + 1
      else begin
        let x = Sat.new_var solver in
        patched.(k) <- x;
        let pl a = patched.(a) in
        match N.gate c k with
        | N.Const _ | N.Input _ ->
            assert false (* no fanins, never in the cone *)
        | N.Not a ->
            Sat.add_clause solver [ -x; -pl a ];
            Sat.add_clause solver [ x; pl a ]
        | N.And2 (a, b) -> and2 x (pl a) (pl b)
        | N.Nand2 (a, b) -> and2 (-x) (pl a) (pl b)
        | N.Or2 (a, b) -> and2 (-x) (-pl a) (-pl b)
        | N.Nor2 (a, b) -> and2 x (-pl a) (-pl b)
        | N.Xor2 (a, b) -> xor2 x (pl a) (pl b)
        | N.Xnor2 (a, b) -> xor2 (-x) (pl a) (pl b)
      end
    done;
    let diffs = ref [] in
    for o = 0 to N.num_outputs c - 1 do
      let r = N.output c o in
      if cone.(r) then begin
        let t = Sat.new_var solver in
        let vr = r + 1 and pr = patched.(r) in
        Sat.add_clause solver [ -t; vr; pr ];
        Sat.add_clause solver [ -t; -vr; -pr ];
        Sat.add_clause solver [ t; -vr; pr ];
        Sat.add_clause solver [ t; vr; -pr ];
        diffs := t :: !diffs
      end
    done;
    Sat.add_clause solver !diffs;
    match Sat.solve solver with Sat.Unsat -> true | Sat.Sat -> false
  end

let sim_word_budget = 2_000_000

(* scan nodes from the outputs down for a fanin resubstitution that
   survives the simulation filter and the SAT proof; [emit] receives each
   proven rewrite and decides whether to keep scanning *)
let scan_resubs ~sat_budget ~rng ~emit c =
  let n = N.num_nodes c in
  let ni = N.num_inputs c in
  let reach = N.reachable c in
  let blocks = Array.init 8 (fun _ -> Array.init ni (fun _ -> Rng.bits64 rng)) in
  (* one incremental engine per pattern block: the candidate filter
     resimulates only [z]'s true fanout cone via [Incremental.with_forced]
     instead of every node above [z]. The sim budget below still
     decrements by the cost of resimulating every node above [z], which
     fixes the order and number of candidates visited. *)
  let soa = Soa.of_netlist c in
  let engines =
    Array.map
      (fun b ->
        Instr.count "dataflow.sim-words" n;
        let e = Incremental.create soa in
        Incremental.load e b;
        e)
      blocks
  in
  let sims = Array.map Incremental.values engines in
  let base_outputs = Array.map Incremental.outputs engines in
  let patched_ok idx z w =
    Incremental.with_forced engines.(idx) ~node:z w (fun e ->
        Incremental.outputs e = base_outputs.(idx))
  in
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
           let candidates = [ a, false; b, false; a, true; b, true ] in
           let rec try_cands = function
             | [] -> ()
             | (m, ph) :: rest ->
                 if sat_budget - !sat_used <= 0 || !sim_budget <= 0 then ()
                 else begin
                   sim_budget :=
                     !sim_budget - (Array.length sims * (n - !z));
                   let sim_ok =
                     let ok = ref true in
                     let i = ref 0 in
                     while !ok && !i < Array.length sims do
                       let v = sims.(!i) in
                       let w = if ph then Int64.lognot v.(m) else v.(m) in
                       ok := patched_ok !i !z w;
                       incr i
                     done;
                     !ok
                   in
                   if sim_ok then begin
                     incr sat_used;
                     if prove_resub c !z (m, ph) then begin
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

let odc_candidates ?(max_sat_checks = 24) ~rng c =
  let found = ref [] in
  let _ =
    scan_resubs ~sat_budget:max_sat_checks ~rng
      ~emit:(fun r ->
        found := r :: !found;
        true)
      c
  in
  List.rev !found

let odc_stage ~rng ~max_sat_checks c0 =
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
      scan_resubs ~sat_budget:(max_sat_checks - !sat_total) ~rng
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

let run ?(level = Full) ?(max_rounds = 3) ?(max_sat_checks = 2000)
    ?(max_odc_checks = 24) ?verify ~rng c0 =
  let gates_before = N.size c0 in
  let const_folded = ref 0 in
  let merged = ref 0 in
  let xor_recovered = ref 0 in
  let odc_rewrites = ref 0 in
  let sat_calls = ref 0 in
  let rounds = ref 0 in
  let checked stage before after changed =
    if changed > 0 then
      match verify with Some v -> v ~stage before after | None -> ()
  in
  (* a stage that fails to shrink the netlist is discarded *)
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
    c :=
      stage "sweep.const"
        (fun c ->
          let out, k = const_stage c in
          const_folded := !const_folded + k;
          out, k, 0)
        !c;
    if level = Full then begin
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
              odc_stage ~rng ~max_sat_checks:max_odc_checks c
            in
            odc_rewrites := !odc_rewrites + k;
            out, k, sat)
          !c
    end;
    progress := N.size !c < size0
  done;
  Instr.count "sweep.removed" (max 0 (gates_before - N.size !c));
  ( !c,
    {
      rounds = !rounds;
      const_folded = !const_folded;
      merged = !merged;
      xor_recovered = !xor_recovered;
      odc_rewrites = !odc_rewrites;
      sat_calls = !sat_calls;
      gates_before;
      gates_after = N.size !c;
    } )
