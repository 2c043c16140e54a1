(* One-level simplification rules for AND construction:
     a & (a & b)        = a & b          (containment)
     a & (~a & b)       = 0              (contradiction)
     a & ~(a & b)       = a & ~b         (substitution)
     a & ~(~a & b)      = a              (absorption)
   checked on both operands via the helper below. *)
let and_rw out a b =
  let fanins_of l =
    let n = Aig.lit_node l in
    if Aig.is_and out n then Some (Aig.fanins out n) else None
  in
  let rule a b =
    (* examine structure of b relative to a; return Some simplified *)
    match fanins_of b with
    | None -> None
    | Some (x, y) ->
        if Aig.lit_phase b then begin
          (* b = ~(x & y) *)
          if x = a then Some (Aig.and_lit out a (Aig.not_lit y))
          else if y = a then Some (Aig.and_lit out a (Aig.not_lit x))
          else if x = Aig.not_lit a || y = Aig.not_lit a then Some a
          else None
        end
        else begin
          (* b = x & y *)
          if x = a || y = a then Some b
          else if x = Aig.not_lit a || y = Aig.not_lit a then
            Some Aig.lit_false
          else None
        end
  in
  match rule a b with
  | Some r -> r
  | None -> (
      match rule b a with
      | Some r -> r
      | None -> Aig.and_lit out a b)

let rewrite aig =
  let out = Aig.create ~num_inputs:(Aig.num_inputs aig) ~num_outputs:(Aig.num_outputs aig) in
  let n = Aig.num_nodes aig in
  let map = Array.make n Aig.lit_false in
  for i = 0 to Aig.num_inputs aig - 1 do
    map.(1 + i) <- Aig.input_lit out i
  done;
  let map_lit l = map.(Aig.lit_node l) lxor (l land 1) in
  for node = Aig.num_inputs aig + 1 to n - 1 do
    let l0, l1 = Aig.fanins aig node in
    map.(node) <- and_rw out (map_lit l0) (map_lit l1)
  done;
  for o = 0 to Aig.num_outputs aig - 1 do
    Aig.set_output out o (map_lit (Aig.output aig o))
  done;
  Aig.compact out

let compress ?(max_rounds = 4) ?(fraig_words = 16) ?verify ~rng aig =
  let module Instr = Lr_instr.Instr in
  let checked stage before after =
    (match verify with Some f -> f ~stage before after | None -> ());
    after
  in
  let step a =
    let pass name f x =
      checked name x (Instr.span ~name (fun () -> f x))
    in
    let a = pass "aig.rewrite" rewrite a in
    let a = pass "aig.cut-rewrite" Rewrite.cut_rewrite a in
    pass "aig.fraig" (Fraig.sweep ~words:fraig_words ~rng) a
  in
  let rec loop round best =
    if round >= max_rounds then best
    else begin
      let candidate = step best in
      Instr.count "aig.opt-rounds" 1;
      Instr.gauge "aig.ands" (float_of_int (Aig.num_ands candidate));
      if Aig.num_ands candidate < Aig.num_ands best then begin
        Instr.count "aig.ands-removed"
          (Aig.num_ands best - Aig.num_ands candidate);
        loop (round + 1) candidate
      end
      else best
    end
  in
  let start = Aig.compact aig in
  Instr.gauge "aig.ands" (float_of_int (Aig.num_ands start));
  loop 0 start
