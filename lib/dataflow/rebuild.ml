module N = Lr_netlist.Netlist

type action =
  | Keep
  | Alias of N.node * bool
  | Xor of N.node * N.node * bool

let apply c act =
  let n = N.num_nodes c in
  let action = Array.init n act in
  Array.iteri
    (fun node a ->
      match a with
      | Keep -> ()
      | Alias (m, _) ->
          if m >= node then invalid_arg "Rebuild.apply: Alias target not older"
      | Xor (a, b, _) ->
          if a >= node || b >= node then
            invalid_arg "Rebuild.apply: Xor operand not older")
    action;
  (* demand: which old nodes the outputs reach through the rewrites *)
  let need = Array.make (max n 1) false in
  for o = 0 to N.num_outputs c - 1 do
    need.(N.output c o) <- true
  done;
  for node = n - 1 downto 0 do
    if need.(node) then
      match action.(node) with
      | Alias (m, _) -> need.(m) <- true
      | Xor (a, b, _) ->
          need.(a) <- true;
          need.(b) <- true
      | Keep -> List.iter (fun a -> need.(a) <- true) (N.fanins (N.gate c node))
  done;
  let out =
    N.create ~input_names:(N.input_names c) ~output_names:(N.output_names c)
  in
  let map = Array.make (max n 1) 0 in
  for node = 0 to n - 1 do
    if need.(node) then
      map.(node) <-
        (match action.(node) with
        | Alias (m, ph) -> if ph then N.not_ out map.(m) else map.(m)
        | Xor (a, b, ph) ->
            let x = N.xor_ out map.(a) map.(b) in
            if ph then N.not_ out x else x
        | Keep -> (
            match N.gate c node with
            | N.Const b -> if b then N.const_true out else N.const_false out
            | N.Input i -> N.input out i
            | N.Not a -> N.not_ out map.(a)
            | N.And2 (a, b) -> N.and_ out map.(a) map.(b)
            | N.Or2 (a, b) -> N.or_ out map.(a) map.(b)
            | N.Xor2 (a, b) -> N.xor_ out map.(a) map.(b)
            | N.Nand2 (a, b) -> N.nand_ out map.(a) map.(b)
            | N.Nor2 (a, b) -> N.nor_ out map.(a) map.(b)
            | N.Xnor2 (a, b) -> N.xnor_ out map.(a) map.(b)))
  done;
  for o = 0 to N.num_outputs c - 1 do
    N.set_output out o map.(N.output c o)
  done;
  out
