module N = Netlist
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover

let write ?(model = "learned") c =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add ".model %s\n" model;
  add ".inputs %s\n" (String.concat " " (Array.to_list (N.input_names c)));
  add ".outputs %s\n" (String.concat " " (Array.to_list (N.output_names c)));
  let reach = N.reachable c in
  let name n =
    match N.gate c n with
    | N.Input i -> (N.input_names c).(i)
    | N.Const _ | N.Not _ | N.And2 _ | N.Or2 _ | N.Xor2 _ | N.Nand2 _
    | N.Nor2 _ | N.Xnor2 _ ->
        Printf.sprintf "n%d" n
  in
  for n = 0 to N.num_nodes c - 1 do
    if reach.(n) then begin
      let table2 a b rows =
        add ".names %s %s %s\n" (name a) (name b) (name n);
        List.iter (fun r -> add "%s 1\n" r) rows
      in
      match N.gate c n with
      | N.Input _ -> ()
      | N.Const false -> add ".names %s\n" (name n)
      | N.Const true -> add ".names %s\n1\n" (name n)
      | N.Not a -> add ".names %s %s\n0 1\n" (name a) (name n)
      | N.And2 (a, b) -> table2 a b [ "11" ]
      | N.Or2 (a, b) -> table2 a b [ "1-"; "-1" ]
      | N.Xor2 (a, b) -> table2 a b [ "10"; "01" ]
      | N.Nand2 (a, b) -> table2 a b [ "0-"; "-0" ]
      | N.Nor2 (a, b) -> table2 a b [ "00" ]
      | N.Xnor2 (a, b) -> table2 a b [ "11"; "00" ]
    end
  done;
  (* output buffers *)
  for o = 0 to N.num_outputs c - 1 do
    let po = (N.output_names c).(o) in
    add ".names %s %s\n1 1\n" (name (N.output c o)) po
  done;
  add ".end\n";
  Buffer.contents buf

let fail fmt = Printf.ksprintf failwith fmt

(* {2 Source-level diagnostics}

   The reader validates the whole table graph eagerly — including logic no
   primary output reaches — so malformed files fail with located messages
   instead of silently dropping dead defects. [Lr_check] reuses the same
   detectors through {!lint}. *)

type severity = Error | Warning

type diag = {
  severity : severity;
  line : int;  (** 1-based source line; 0 when no single line applies *)
  signal : string;
  message : string;
  hint : string;
}

type row = { row_line : int; pattern : string; value : char }
type table = { line : int; fanins : string list; out : string; rows : row list }

type source = {
  src_inputs : (int * string) list;
  src_outputs : (int * string) list;
  src_tables : table list;
}

(* Strip comments, join continuation lines; each logical line keeps the
   1-based number of its first physical line. *)
let logical_lines text =
  let physical =
    String.split_on_char '\n' text
    |> List.mapi (fun i l ->
           let l =
             match String.index_opt l '#' with
             | Some j -> String.sub l 0 j
             | None -> l
           in
           (i + 1, l))
  in
  let acc, pending =
    List.fold_left
      (fun (acc, pending) (lineno, line) ->
        let start, text =
          match pending with
          | Some (n, s) -> (n, s ^ line)
          | None -> (lineno, line)
        in
        if String.length text > 0 && text.[String.length text - 1] = '\\' then
          (acc, Some (start, String.sub text 0 (String.length text - 1)))
        else ((start, text) :: acc, None))
      ([], None) physical
  in
  List.rev (match pending with Some p -> p :: acc | None -> acc)

let parse text =
  let words l =
    String.split_on_char ' ' l
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> w <> "")
  in
  let inputs = ref [] and outputs = ref [] in
  let tables = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | Some t ->
        tables := { t with rows = List.rev t.rows } :: !tables;
        current := None
    | None -> ()
  in
  List.iter
    (fun (lineno, line) ->
      match words line with
      | [] -> ()
      | ".model" :: _ -> ()
      | ".inputs" :: names ->
          inputs := !inputs @ List.map (fun n -> (lineno, n)) names
      | ".outputs" :: names ->
          outputs := !outputs @ List.map (fun n -> (lineno, n)) names
      | ".names" :: signals -> (
          flush ();
          match List.rev signals with
          | out :: rev_fanins ->
              current :=
                Some { line = lineno; fanins = List.rev rev_fanins; out; rows = [] }
          | [] -> fail "Blif.read: line %d: .names with no signals" lineno)
      | ".end" :: _ -> flush ()
      | (".latch" | ".subckt" | ".gate") :: _ ->
          fail "Blif.read: line %d: sequential/hierarchical BLIF not supported"
            lineno
      | [ pattern; value ] when String.length value = 1 -> (
          match !current with
          | Some t ->
              current :=
                Some
                  { t with rows = { row_line = lineno; pattern; value = value.[0] } :: t.rows }
          | None -> fail "Blif.read: line %d: table row outside .names" lineno)
      | [ single ] -> (
          (* constant table row: output column only *)
          match !current with
          | Some t when t.fanins = [] ->
              current :=
                Some
                  { t with rows = { row_line = lineno; pattern = ""; value = single.[0] } :: t.rows }
          | Some _ ->
              fail "Blif.read: line %d: missing output column in row %S" lineno
                single
          | None -> fail "Blif.read: line %d: table row outside .names" lineno)
      | w :: _ ->
          if String.length w > 0 && w.[0] = '.' then
            fail "Blif.read: line %d: unsupported directive %s" lineno w
          else fail "Blif.read: line %d: malformed line %S" lineno line)
    (logical_lines text);
  flush ();
  {
    src_inputs = !inputs;
    src_outputs = !outputs;
    src_tables = List.rev !tables;
  }

(* [a], [y] with a single NOT row — the shape {!write} emits for inverters. *)
let inverter_input t =
  match (t.fanins, t.rows) with
  | [ a ], [ r ]
    when (r.pattern = "0" && r.value = '1') || (r.pattern = "1" && r.value = '0')
    ->
      Some a
  | _ -> None

let validate src =
  let diags = ref [] in
  let add severity line signal message hint =
    diags := { severity; line; signal; message; hint } :: !diags
  in
  let is_input = Hashtbl.create 16 in
  List.iter
    (fun (ln, n) ->
      if Hashtbl.mem is_input n then
        add Error ln n
          (Printf.sprintf "primary input %s declared twice" n)
          "remove the duplicate .inputs entry"
      else Hashtbl.add is_input n ())
    src.src_inputs;
  (* exactly one driving table per signal, and never one driving a PI *)
  let driver = Hashtbl.create 64 in
  List.iter
    (fun t ->
      if Hashtbl.mem is_input t.out then
        add Error t.line t.out
          (Printf.sprintf ".names table drives primary input %s" t.out)
          "rename the table output or drop the .inputs declaration"
      else
        match Hashtbl.find_opt driver t.out with
        | Some (first : table) ->
            add Error t.line t.out
              (Printf.sprintf "signal %s driven by multiple tables (first at line %d)"
                 t.out first.line)
              "merge the rows into one table or remove one driver"
        | None -> Hashtbl.add driver t.out t)
    src.src_tables;
  (* per-table row shape *)
  List.iter
    (fun t ->
      let k = List.length t.fanins in
      let polarities = ref [] in
      List.iter
        (fun r ->
          if String.length r.pattern <> k then
            add Error r.row_line t.out
              (Printf.sprintf "row width %d does not match %d fanins"
                 (String.length r.pattern) k)
              "give the row one column per .names fanin";
          String.iter
            (fun ch ->
              match ch with
              | '0' | '1' | '-' -> ()
              | _ ->
                  add Error r.row_line t.out
                    (Printf.sprintf "bad pattern character %C" ch)
                    "use only 0, 1 or - in input columns")
            r.pattern;
          match r.value with
          | ('0' | '1') as v ->
              if not (List.mem v !polarities) then polarities := v :: !polarities
          | c ->
              add Error r.row_line t.out
                (Printf.sprintf "bad output value %C" c)
                "the output column must be 0 or 1")
        t.rows;
      if List.length !polarities > 1 then
        add Error t.line t.out
          (Printf.sprintf "mixed-polarity table for %s" t.out)
          "use a single output polarity per table")
    src.src_tables;
  (* every referenced signal must be a PI or a table output *)
  let defined n = Hashtbl.mem is_input n || Hashtbl.mem driver n in
  let reported_undriven = Hashtbl.create 16 in
  let undriven line name =
    if not (Hashtbl.mem reported_undriven name) then begin
      Hashtbl.add reported_undriven name ();
      add Error line name
        (Printf.sprintf "undriven signal %s" name)
        "declare it in .inputs or add a .names table for it"
    end
  in
  List.iter
    (fun t -> List.iter (fun f -> if not (defined f) then undriven t.line f) t.fanins)
    src.src_tables;
  List.iter
    (fun (ln, n) -> if not (defined n) then undriven ln n)
    src.src_outputs;
  (* combinational cycles, over the whole graph (dead cycles included) *)
  let color = Hashtbl.create 64 in
  let rec visit stack name =
    match Hashtbl.find_opt color name with
    | Some `Done -> ()
    | Some `Active ->
        let rec take acc = function
          | [] -> acc
          | x :: rest -> if x = name then x :: acc else take (x :: acc) rest
        in
        let path = take [ name ] stack in
        add Error (Hashtbl.find driver name).line name
          (Printf.sprintf "combinational cycle through %s"
             (String.concat " -> " path))
          "break the feedback loop; BLIF here is purely combinational"
    | None -> (
        match Hashtbl.find_opt driver name with
        | None -> ()
        | Some t ->
            Hashtbl.replace color name `Active;
            List.iter (visit (name :: stack)) t.fanins;
            Hashtbl.replace color name `Done)
  in
  List.iter (fun t -> visit [] t.out) src.src_tables;
  (* dead logic: tables outside every primary output cone *)
  let live = Hashtbl.create 64 in
  let rec mark name =
    if not (Hashtbl.mem live name) then begin
      Hashtbl.add live name ();
      match Hashtbl.find_opt driver name with
      | Some t -> List.iter mark t.fanins
      | None -> ()
    end
  in
  List.iter (fun (_, n) -> mark n) src.src_outputs;
  List.iter
    (fun t ->
      if (not (Hashtbl.mem live t.out)) && Hashtbl.find_opt driver t.out = Some t
      then
        add Warning t.line t.out
          (Printf.sprintf "table for %s drives no primary output" t.out)
          "remove the dead logic or list the signal in .outputs")
    src.src_tables;
  (* double inversions *)
  List.iter
    (fun t ->
      match inverter_input t with
      | Some a -> (
          match Hashtbl.find_opt driver a with
          | Some d when inverter_input d <> None ->
              add Warning t.line t.out
                (Printf.sprintf "%s is an inverter of inverter %s" t.out a)
                "collapse the double inversion"
          | _ -> ())
      | None -> ())
    src.src_tables;
  (* structural duplicates: same fanins, same rows, different output *)
  let canon = Hashtbl.create 64 in
  List.iter
    (fun t ->
      let key =
        (t.fanins, List.sort compare (List.map (fun r -> (r.pattern, r.value)) t.rows))
      in
      match Hashtbl.find_opt canon key with
      | Some (first : table) ->
          add Warning t.line t.out
            (Printf.sprintf "table for %s duplicates table for %s (line %d)"
               t.out first.out first.line)
            "drive both signals from one table"
      | None -> Hashtbl.add canon key t)
    src.src_tables;
  List.stable_sort
    (fun (a : diag) (b : diag) -> compare a.line b.line)
    (List.rev !diags)

let lint text =
  match parse text with
  | exception Failure msg ->
      [ { severity = Error; line = 0; signal = ""; message = msg;
          hint = "fix the syntax error first" } ]
  | src -> validate src

let read text =
  let src = parse text in
  (match List.find_opt (fun d -> d.severity = Error) (validate src) with
  | Some d -> fail "Blif.read: line %d: %s" d.line d.message
  | None -> ());
  let input_names = Array.of_list (List.map snd src.src_inputs) in
  let output_names = Array.of_list (List.map snd src.src_outputs) in
  let c = N.create ~input_names ~output_names in
  let by_output = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.replace by_output t.out t) src.src_tables;
  let resolved = Hashtbl.create 64 in
  Array.iteri
    (fun i name -> Hashtbl.replace resolved name (N.input c i))
    input_names;
  let rec node_of name =
    match Hashtbl.find_opt resolved name with
    | Some n -> n
    | None ->
        (* validate already rejected cycles, undriven and malformed tables *)
        let t = Hashtbl.find by_output name in
        let fanin_nodes = List.map node_of t.fanins |> Array.of_list in
        let k = Array.length fanin_nodes in
        let onset_rows, offset_rows =
          List.partition (fun r -> r.value = '1') t.rows
        in
        let cover_of rows =
          Cover.of_cubes k
            (List.map
               (fun r ->
                 (* BLIF row order: leftmost char = first fanin *)
                 let cube = ref (Cube.top k) in
                 String.iteri
                   (fun i ch ->
                     match ch with
                     | '1' -> cube := Cube.add !cube i true
                     | '0' -> cube := Cube.add !cube i false
                     | _ -> ())
                   r.pattern;
                 !cube)
               rows)
        in
        let n =
          match (onset_rows, offset_rows) with
          | [], [] -> N.const_false c
          | rows, [] ->
              if k = 0 then N.const_true c
              else Builder.sop c fanin_nodes (cover_of rows)
          | [], rows ->
              if k = 0 then N.const_false c
              else N.not_ c (Builder.sop c fanin_nodes (cover_of rows))
          | _ :: _, _ :: _ -> fail "Blif.read: mixed-polarity table for %s" name
        in
        Hashtbl.replace resolved name n;
        n
  in
  Array.iteri (fun o name -> N.set_output c o (node_of name)) output_names;
  c

let read_file path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  read text
