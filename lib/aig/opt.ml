(* One-level simplification rules for AND construction:
     a & (a & b)        = a & b          (containment)
     a & (~a & b)       = 0              (contradiction)
     a & ~(a & b)       = a & ~b         (substitution)
     a & ~(~a & b)      = a              (absorption)
   checked on both operands: [rule out a b] is the simplified literal
   when [b]'s structure relative to [a] decides the AND, or -1 (no
   literal) when it does not. Nothing is allocated on the way. *)
let rule out a b =
  let n = Aig.lit_node b in
  if not (Aig.is_and out n) then -1
  else begin
    let x = Aig.fanin0 out n and y = Aig.fanin1 out n in
    if Aig.lit_phase b then begin
      (* b = ~(x & y) *)
      if x = a then Aig.and_lit out a (Aig.not_lit y)
      else if y = a then Aig.and_lit out a (Aig.not_lit x)
      else if x = Aig.not_lit a || y = Aig.not_lit a then a
      else -1
    end
    else begin
      (* b = x & y *)
      if x = a || y = a then b
      else if x = Aig.not_lit a || y = Aig.not_lit a then Aig.lit_false
      else -1
    end
  end

let and_rw out a b =
  let r = rule out a b in
  if r >= 0 then r
  else
    let r = rule out b a in
    if r >= 0 then r else Aig.and_lit out a b

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
