module N = Netlist

let write t =
  let buf = Buffer.create 4096 in
  let names sep arr =
    Array.iteri
      (fun i s ->
        if i > 0 then Buffer.add_char buf sep;
        Buffer.add_string buf s)
      arr
  in
  Buffer.add_string buf ".inputs ";
  names ' ' (N.input_names t);
  Buffer.add_string buf "\n.outputs ";
  names ' ' (N.output_names t);
  Buffer.add_char buf '\n';
  for n = 0 to N.num_nodes t - 1 do
    let line op args =
      Buffer.add_string buf (Printf.sprintf ".gate %d = %s" n op);
      List.iter (fun a -> Buffer.add_string buf (Printf.sprintf " %d" a)) args;
      Buffer.add_char buf '\n'
    in
    match N.gate t n with
    | N.Const _ | N.Input _ -> ()
    | N.Not a -> line "NOT" [ a ]
    | N.And2 (a, b) -> line "AND" [ a; b ]
    | N.Or2 (a, b) -> line "OR" [ a; b ]
    | N.Xor2 (a, b) -> line "XOR" [ a; b ]
    | N.Nand2 (a, b) -> line "NAND" [ a; b ]
    | N.Nor2 (a, b) -> line "NOR" [ a; b ]
    | N.Xnor2 (a, b) -> line "XNOR" [ a; b ]
  done;
  Array.iteri
    (fun i name ->
      Buffer.add_string buf
        (Printf.sprintf ".po %s = %d\n" name (N.output t i)))
    (N.output_names t);
  Buffer.contents buf

let fail lineno msg = failwith (Printf.sprintf "Netlist.Io line %d: %s" lineno msg)

let read text =
  let lines = String.split_on_char '\n' text in
  let inputs = ref [||] and outputs = ref [||] in
  let pending = ref [] and po_defs = ref [] in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let words =
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun w -> w <> "")
      in
      match words with
      | [] -> ()
      | ".inputs" :: names -> inputs := Array.of_list names
      | ".outputs" :: names -> outputs := Array.of_list names
      | ".gate" :: rest -> pending := (lineno, rest) :: !pending
      | ".po" :: rest -> po_defs := (lineno, rest) :: !po_defs
      | w :: _ -> fail lineno ("unknown directive " ^ w))
    lines;
  let t = N.create ~input_names:!inputs ~output_names:!outputs in
  (* Old-file node id -> node in the freshly built network. Constants and
     inputs share the id convention, so they map to themselves. *)
  let map = Hashtbl.create 256 in
  Hashtbl.replace map 0 (N.const_false t);
  Hashtbl.replace map 1 (N.const_true t);
  Array.iteri (fun i _ -> Hashtbl.replace map (2 + i) (N.input t i)) !inputs;
  let resolve lineno id =
    match Hashtbl.find_opt map id with
    | Some n -> n
    | None -> fail lineno (Printf.sprintf "undefined node %d" id)
  in
  let int_of lineno s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail lineno ("expected integer, got " ^ s)
  in
  List.iter
    (fun (lineno, rest) ->
      match rest with
      | [ id; "="; "NOT"; a ] ->
          Hashtbl.replace map (int_of lineno id)
            (N.not_ t (resolve lineno (int_of lineno a)))
      | [ id; "="; op; a; b ] ->
          let x = resolve lineno (int_of lineno a)
          and y = resolve lineno (int_of lineno b) in
          let f =
            match op with
            | "AND" -> N.and_
            | "OR" -> N.or_
            | "XOR" -> N.xor_
            | "NAND" -> N.nand_
            | "NOR" -> N.nor_
            | "XNOR" -> N.xnor_
            | _ -> fail lineno ("unknown gate " ^ op)
          in
          Hashtbl.replace map (int_of lineno id) (f t x y)
      | _ -> fail lineno "malformed .gate line")
    (List.rev !pending);
  List.iter
    (fun (lineno, rest) ->
      match rest with
      | [ name; "="; id ] ->
          let out_index =
            let found = ref (-1) in
            Array.iteri
              (fun i n -> if n = name then found := i)
              (N.output_names t);
            if !found < 0 then fail lineno ("unknown output " ^ name);
            !found
          in
          N.set_output t out_index (resolve lineno (int_of lineno id))
      | _ -> fail lineno "malformed .po line")
    (List.rev !po_defs);
  t

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      really_input_string ic n)
  |> read
