module N = Netlist

let escape s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let write ?(graph_name = "circuit") c =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "digraph %s {\n  rankdir=LR;\n" graph_name;
  let reach = N.reachable c in
  for n = 0 to N.num_nodes c - 1 do
    if reach.(n) then begin
      let node label shape =
        add "  n%d [label=\"%s\", shape=%s];\n" n (escape label) shape
      in
      let edge a = add "  n%d -> n%d;\n" a n in
      match N.gate c n with
      | N.Const b -> node (if b then "1" else "0") "plaintext"
      | N.Input i -> node (N.input_names c).(i) "box"
      | N.Not a ->
          node "NOT" "invtriangle";
          edge a
      | N.And2 (a, b) ->
          node "AND" "ellipse";
          edge a;
          edge b
      | N.Or2 (a, b) ->
          node "OR" "ellipse";
          edge a;
          edge b
      | N.Xor2 (a, b) ->
          node "XOR" "ellipse";
          edge a;
          edge b
      | N.Nand2 (a, b) ->
          node "NAND" "ellipse";
          edge a;
          edge b
      | N.Nor2 (a, b) ->
          node "NOR" "ellipse";
          edge a;
          edge b
      | N.Xnor2 (a, b) ->
          node "XNOR" "ellipse";
          edge a;
          edge b
    end
  done;
  for o = 0 to N.num_outputs c - 1 do
    add "  po%d [label=\"%s\", shape=doublecircle];\n" o
      (escape (N.output_names c).(o));
    add "  n%d -> po%d;\n" (N.output c o) o
  done;
  add "}\n";
  Buffer.contents buf
