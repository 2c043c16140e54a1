module N = Lr_netlist.Netlist
module Aig = Lr_aig.Aig
module Json = Lr_instr.Json
module F = Finding

let sprintf = Printf.sprintf

let netlist c =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let n = N.num_nodes c in
  let reach = N.reachable c in
  let dead = ref 0 in
  for node = 0 to n - 1 do
    if not reach.(node) then
      match N.gate c node with N.Const _ | N.Input _ -> () | _ -> incr dead
  done;
  if !dead > 0 then
    add
      (F.make F.Warning ~rule:"dead-logic" ~where:""
         ~hint:"writers skip dead logic, but it still costs memory and eval time"
         (sprintf "%d gate(s) unreachable from any primary output" !dead));
  for o = 0 to N.num_outputs c - 1 do
    match N.gate c (N.output c o) with
    | N.Const b ->
        add
          (F.make F.Info ~rule:"constant-output"
             ~where:(sprintf "output %s" (N.output_names c).(o))
             ~hint:""
             (sprintf "output is the constant %s" (if b then "1" else "0")))
    | _ -> ()
  done;
  F.normalize !findings

let aig a =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let nn = Aig.num_nodes a in
  let reach = Array.make (max nn 1) false in
  let rec visit node =
    if not reach.(node) then begin
      reach.(node) <- true;
      if Aig.is_and a node then begin
        let l0, l1 = Aig.fanins a node in
        visit (Aig.lit_node l0);
        visit (Aig.lit_node l1)
      end
    end
  in
  for o = 0 to Aig.num_outputs a - 1 do
    visit (Aig.lit_node (Aig.output a o))
  done;
  let dead = ref 0 in
  for node = Aig.num_inputs a + 1 to nn - 1 do
    if not reach.(node) then incr dead
  done;
  if !dead > 0 then
    add
      (F.make F.Warning ~rule:"dead-logic" ~where:""
         ~hint:"run Aig.compact"
         (sprintf "%d AND node(s) unreachable from any output" !dead));
  for o = 0 to Aig.num_outputs a - 1 do
    if Aig.lit_node (Aig.output a o) = 0 then
      add
        (F.make F.Info ~rule:"constant-output" ~where:(sprintf "output %d" o)
           ~hint:""
           (sprintf "output is the constant %s"
              (if Aig.lit_phase (Aig.output a o) then "1" else "0")))
  done;
  F.normalize !findings

let blif_source text =
  F.normalize (List.map Finding.of_blif_diag (Lr_netlist.Blif.lint text))

type cone = {
  output : int;
  name : string;
  gates : int;
  inverters : int;
  depth : int;
  support : int;
  max_fanout : int;
}

let cones c =
  let n = N.num_nodes c in
  let depth = Array.make (max n 1) 0 in
  for node = 0 to n - 1 do
    depth.(node) <-
      (match N.gate c node with
      | N.Const _ | N.Input _ -> 0
      | N.Not a -> depth.(a)
      | g ->
          1 + List.fold_left (fun acc a -> max acc depth.(a)) 0 (N.fanins g))
  done;
  let fanout = N.fanout_counts c in
  List.init (N.num_outputs c) (fun o ->
      let root = N.output c o in
      let in_cone = N.reachable_from c [ root ] in
      let gates = ref 0 and inverters = ref 0 and support = ref 0 in
      let max_fanout = ref 0 in
      for node = 0 to n - 1 do
        if in_cone.(node) then begin
          max_fanout := max !max_fanout fanout.(node);
          match N.gate c node with
          | N.Const _ -> ()
          | N.Input _ -> incr support
          | N.Not _ -> incr inverters
          | _ -> incr gates
        end
      done;
      {
        output = o;
        name = (N.output_names c).(o);
        gates = !gates;
        inverters = !inverters;
        depth = depth.(root);
        support = !support;
        max_fanout = !max_fanout;
      })

let cone_json k =
  Json.Obj
    [
      ("output", Json.Int k.output);
      ("name", Json.String k.name);
      ("gates", Json.Int k.gates);
      ("inverters", Json.Int k.inverters);
      ("depth", Json.Int k.depth);
      ("support", Json.Int k.support);
      ("max_fanout", Json.Int k.max_fanout);
    ]
