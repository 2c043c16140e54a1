module N = Netlist

let is_simple_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true | _ -> false)
       s

(* escaped identifiers start with a backslash and end at whitespace *)
let ident s = if is_simple_ident s then s else "\\" ^ s ^ " "

let write ?(module_name = "learned") c =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ins = N.input_names c and outs = N.output_names c in
  let ports =
    Array.to_list (Array.map ident ins) @ Array.to_list (Array.map ident outs)
  in
  add "module %s(%s);\n" module_name (String.concat ", " ports);
  Array.iter (fun s -> add "  input %s;\n" (ident s)) ins;
  Array.iter (fun s -> add "  output %s;\n" (ident s)) outs;
  (* only reachable logic is emitted *)
  let reach = N.reachable c in
  let wire n = Printf.sprintf "n%d" n in
  let operand n =
    match N.gate c n with
    | N.Const false -> "1'b0"
    | N.Const true -> "1'b1"
    | N.Input i -> ident ins.(i)
    | N.Not _ | N.And2 _ | N.Or2 _ | N.Xor2 _ | N.Nand2 _ | N.Nor2 _
    | N.Xnor2 _ ->
        wire n
  in
  for n = 0 to N.num_nodes c - 1 do
    if reach.(n) then
      match N.gate c n with
      | N.Const _ | N.Input _ -> ()
      | N.Not _ | N.And2 _ | N.Or2 _ | N.Xor2 _ | N.Nand2 _ | N.Nor2 _
      | N.Xnor2 _ ->
          add "  wire %s;\n" (wire n)
  done;
  for n = 0 to N.num_nodes c - 1 do
    if reach.(n) then begin
      let bin op a b =
        add "  assign %s = %s %s %s;\n" (wire n) (operand a) op (operand b)
      in
      match N.gate c n with
      | N.Const _ | N.Input _ -> ()
      | N.Not a -> add "  assign %s = ~%s;\n" (wire n) (operand a)
      | N.And2 (a, b) -> bin "&" a b
      | N.Or2 (a, b) -> bin "|" a b
      | N.Xor2 (a, b) -> bin "^" a b
      | N.Nand2 (a, b) ->
          add "  assign %s = ~(%s & %s);\n" (wire n) (operand a) (operand b)
      | N.Nor2 (a, b) ->
          add "  assign %s = ~(%s | %s);\n" (wire n) (operand a) (operand b)
      | N.Xnor2 (a, b) ->
          add "  assign %s = ~(%s ^ %s);\n" (wire n) (operand a) (operand b)
    end
  done;
  for o = 0 to N.num_outputs c - 1 do
    add "  assign %s = %s;\n" (ident outs.(o)) (operand (N.output c o))
  done;
  add "endmodule\n";
  Buffer.contents buf
