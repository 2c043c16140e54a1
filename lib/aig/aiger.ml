(* ASCII AIGER. Literal encoding coincides with ours: 2*v (+1 when
   complemented), variable 0 the constant false, inputs 1..I. *)

let write ?comment aig =
  let buf = Buffer.create 4096 in
  let ni = Aig.num_inputs aig and no = Aig.num_outputs aig in
  let na = Aig.num_ands aig in
  Buffer.add_string buf
    (Printf.sprintf "aag %d %d 0 %d %d\n" (ni + na) ni no na);
  for i = 0 to ni - 1 do
    Buffer.add_string buf (Printf.sprintf "%d\n" (Aig.input_lit aig i))
  done;
  for o = 0 to no - 1 do
    Buffer.add_string buf (Printf.sprintf "%d\n" (Aig.output aig o))
  done;
  for node = ni + 1 to Aig.num_nodes aig - 1 do
    let l0, l1 = Aig.fanins aig node in
    Buffer.add_string buf (Printf.sprintf "%d %d %d\n" (2 * node) l0 l1)
  done;
  for i = 0 to ni - 1 do
    Buffer.add_string buf (Printf.sprintf "i%d i%d\n" i i)
  done;
  for o = 0 to no - 1 do
    Buffer.add_string buf (Printf.sprintf "o%d o%d\n" o o)
  done;
  (match comment with
  | Some c -> Buffer.add_string buf (Printf.sprintf "c\n%s\n" c)
  | None -> ());
  Buffer.contents buf

let fail fmt = Printf.ksprintf failwith fmt

let read text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | [] -> fail "Aiger.read: empty input"
  | header :: rest -> (
      let ints_of s =
        String.split_on_char ' ' s
        |> List.filter (fun w -> w <> "")
        |> List.map (fun w ->
               match int_of_string_opt w with
               | Some v -> v
               | None -> fail "Aiger.read: expected integer, got %S" w)
      in
      match String.split_on_char ' ' header with
      | "aag" :: _ -> (
          match ints_of (String.sub header 3 (String.length header - 3)) with
          | [ m; i; l; o; a ] as fields ->
              List.iter
                (fun v ->
                  if v < 0 then
                    fail "Aiger.read: line 1: negative header field %d" v)
                fields;
              if l <> 0 then fail "Aiger.read: latches unsupported";
              if m < i + a then
                fail
                  "Aiger.read: line 1: header bound %d below %d inputs + %d ANDs"
                  m i a;
              let rest = Array.of_list rest in
              (* body index k sits on source line k+2 (1-based, after the
                 header) *)
              let line k = k + 2 in
              (* the counts size the graph built below: before allocating
                 for them, refuse a header that claims more lines than the
                 body has (summed without overflow; the empty string after
                 a final newline is not a line) *)
              let body = Array.length rest in
              let body =
                if body > 0 && rest.(body - 1) = "" then body - 1 else body
              in
              if i > body || o > body - i || a > body - i - o then
                fail "Aiger.read: truncated at line %d" (line body);
              let expect k =
                if k >= Array.length rest then
                  fail "Aiger.read: truncated at line %d" (line k);
                rest.(k)
              in
              (* input literal lines are implied by our encoding, but we
                 validate them *)
              for k = 0 to i - 1 do
                match ints_of (expect k) with
                | [ lit ] when lit = 2 * (k + 1) -> ()
                | _ ->
                    fail "Aiger.read: line %d: expected input literal %d"
                      (line k)
                      (2 * (k + 1))
              done;
              let outputs =
                Array.init o (fun k ->
                    match ints_of (expect (i + k)) with
                    | [ lit ] when lit >= 0 && lit / 2 <= m -> lit
                    | [ lit ] ->
                        fail "Aiger.read: line %d: output literal %d beyond bound %d"
                          (line (i + k))
                          lit m
                    | _ -> fail "Aiger.read: line %d: malformed output line"
                             (line (i + k)))
              in
              let aig = Aig.create ~num_inputs:i ~num_outputs:o in
              (* AND definitions must be in topological order (standard for
                 aag); map the file's literals to the strashed graph *)
              let map = Hashtbl.create 256 in
              Hashtbl.replace map 0 Aig.lit_false;
              for v = 1 to i do
                Hashtbl.replace map (2 * v) (Aig.input_lit aig (v - 1))
              done;
              let resolve ln lit =
                if lit < 0 || lit / 2 > m then
                  fail "Aiger.read: line %d: literal %d beyond bound %d" ln lit m;
                match Hashtbl.find_opt map (lit land lnot 1) with
                | Some base -> base lxor (lit land 1)
                | None ->
                    fail
                      "Aiger.read: line %d: literal %d used before its definition"
                      ln lit
              in
              for k = 0 to a - 1 do
                let ln = line (i + o + k) in
                match ints_of (expect (i + o + k)) with
                | [ lhs; r0; r1 ] when lhs land 1 = 0 ->
                    if lhs <= 2 * i then
                      fail
                        "Aiger.read: line %d: AND literal %d collides with an input or constant"
                        ln lhs;
                    if lhs / 2 > m then
                      fail "Aiger.read: line %d: AND literal %d beyond bound %d"
                        ln lhs m;
                    if Hashtbl.mem map lhs then
                      fail "Aiger.read: line %d: literal %d defined twice" ln lhs;
                    Hashtbl.add map lhs
                      (Aig.and_lit aig (resolve ln r0) (resolve ln r1))
                | _ -> fail "Aiger.read: line %d: malformed AND line" ln
              done;
              Array.iteri
                (fun k lit ->
                  Aig.set_output aig k (resolve (line (i + k)) lit))
                outputs;
              aig
          | _ -> fail "Aiger.read: malformed header")
      | "aig" :: _ -> fail "Aiger.read: binary aig not supported, use aag"
      | _ -> fail "Aiger.read: not an AIGER file")

let read_file path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  read text
