module N = Lr_netlist.Netlist
module Rng = Lr_bitvec.Rng
module F = Lr_check.Finding
module Fraig = Lr_aig.Fraig

let sprintf = Printf.sprintf

let netlist ?(seed = 1) ?(max_sat_checks = 2000) c =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let n = N.num_nodes c in
  let reach = N.reachable c in
  (* equivalence classes: duplicates, complements, SAT constants *)
  let rng = Rng.create seed in
  let eq =
    Fraig.classes ~layer:"dataflow" ~max_rounds:32 ~max_sat_checks ~rng
      (Lr_kernel.Soa.of_netlist c)
  in
  for node = 0 to n - 1 do
    if reach.(node) then begin
      let root = Fraig.repr_node eq node in
      let ph = Fraig.repr_phase eq node in
      if root <> node then
        match N.gate c node with
        | N.Const _ | N.Input _ -> ()
        | _ ->
            if root <= 1 then
              add
                (F.make F.Warning ~rule:"sat-constant-node"
                   ~where:(sprintf "node %d" node)
                   ~hint:"replace by the constant (--sweep full)"
                   (sprintf "SAT proves the gate is the constant %d"
                      (Bool.to_int (ph <> (root = 1)))))
            else if ph then begin
              (* a literal inverter is trivially its fanin's complement —
                 only report complements the structure does not show *)
              if N.gate c node <> N.Not root then
                add
                  (F.make F.Info ~rule:"complement-cone"
                     ~where:(sprintf "node %d" node)
                     ~hint:"share the cone through one inverter (--sweep full)"
                     (sprintf "cone is the proven complement of node %d" root))
            end
            else
              add
                (F.make F.Warning ~rule:"duplicate-cone"
                   ~where:(sprintf "node %d" node)
                   ~hint:"share one cone (--sweep full)"
                   (sprintf "cone is provably equivalent to node %d" root))
    end
  done;
  let out_lit o = eq.Fraig.repr.(N.output c o) in
  for o = 0 to N.num_outputs c - 1 do
    for o' = 0 to o - 1 do
      if out_lit o = out_lit o' then
        add
          (F.make F.Warning ~rule:"duplicate-output"
             ~where:(sprintf "output %s" (N.output_names c).(o))
             ~hint:"drive both outputs from one cone"
             (sprintf "provably equal to output %s" (N.output_names c).(o')))
      else if out_lit o = out_lit o' lxor 1 then
        add
          (F.make F.Info ~rule:"complement-output"
             ~where:(sprintf "output %s" (N.output_names c).(o))
             ~hint:"derive one output from the other through an inverter"
             (sprintf "provably the complement of output %s"
                (N.output_names c).(o')))
    done
  done;
  (* rewrite opportunities the sweep would take *)
  for node = 0 to n - 1 do
    if reach.(node) then
      match Sweep.xor_action c node with
      | Rebuild.Xor (a, b, ph) ->
          add
            (F.make F.Info ~rule:"xor-convertible"
               ~where:(sprintf "node %d" node)
               ~hint:"rebuild as one XOR2/XNOR2 gate (--sweep full)"
               (sprintf "gate tree computes %s of nodes %d and %d"
                  (if ph then "XNOR" else "XOR")
                  a b))
      | _ -> ()
  done;
  List.iter
    (fun (z, m, ph) ->
      add
        (F.make F.Warning ~rule:"odc-simplifiable"
           ~where:(sprintf "node %d" z)
           ~hint:"resubstitute the fanin (--sweep full)"
           (sprintf "gate is replaceable by %snode %d on every care input"
              (if ph then "the complement of " else "")
              m)))
    (Sweep.odc_candidates ~rng c);
  (* summary: what a full sweep would reclaim *)
  let _, st = Sweep.run ~rng:(Rng.create seed) c in
  let removed = Sweep.removed st in
  if removed > 0 then
    add
      (F.make F.Info ~rule:"sweep-opportunity" ~where:""
         ~hint:"run with --sweep full"
         (sprintf "a verified sweep removes %d of %d gates" removed
            st.Sweep.gates_before));
  (F.normalize !findings, removed)

let rule_counts findings =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : F.t) ->
      Hashtbl.replace tbl f.F.rule
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f.F.rule)))
    findings;
  Hashtbl.fold (fun rule k acc -> (rule, k) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
