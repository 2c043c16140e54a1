type family = {
  name : string;
  help : string;
  kind : [ `Counter | `Gauge ];
  samples : ((string * string) list * float) list;
}

let sanitize_name s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    s;
  let s = Buffer.contents b in
  if s = "" then "_"
  else match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_value v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.15g" v

let render families =
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      let name = sanitize_name f.name in
      Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name f.help);
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s %s\n" name
           (match f.kind with `Counter -> "counter" | `Gauge -> "gauge"));
      List.iter
        (fun (labels, v) ->
          if Float.is_finite v then begin
            let lbl =
              match labels with
              | [] -> ""
              | l ->
                  "{"
                  ^ String.concat ","
                      (List.map
                         (fun (k, v) ->
                           Printf.sprintf "%s=\"%s\"" (sanitize_name k)
                             (escape_label v))
                         l)
                  ^ "}"
            in
            Buffer.add_string b
              (Printf.sprintf "%s%s %s\n" name lbl (render_value v))
          end)
        f.samples)
    families;
  Buffer.contents b
