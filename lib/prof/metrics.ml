module Instr = Lr_instr.Instr

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

let of_instr () =
  let span_s = Instr.span_seconds () in
  let span_c = Instr.span_calls () in
  let counters = Instr.counter_totals () in
  let by_span = Instr.counters_by_span () in
  let gc = Gc.quick_stat () in
  [
    {
      name = "lr_span_seconds_total";
      help = "Cumulative seconds per telemetry span path.";
      kind = `Counter;
      samples = List.map (fun (p, s) -> ([ ("path", p) ], s)) span_s;
    };
    {
      name = "lr_span_calls_total";
      help = "Completed calls per telemetry span path.";
      kind = `Counter;
      samples =
        List.map (fun (p, c) -> ([ ("path", p) ], float_of_int c)) span_c;
    };
    {
      name = "lr_counter_total";
      help = "Telemetry counter totals across all spans.";
      kind = `Counter;
      samples =
        List.map (fun (n, v) -> ([ ("name", n) ], float_of_int v)) counters;
    };
    {
      name = "lr_counter_by_span_total";
      help = "Telemetry counter totals attributed to their span path.";
      kind = `Counter;
      samples =
        List.map
          (fun ((p, n), v) ->
            ([ ("path", p); ("name", n) ], float_of_int v))
          by_span;
    };
    {
      name = "lr_clock_skew_seconds";
      help = "Synthetic clock skew injected by the fault harness.";
      kind = `Gauge;
      samples = [ ([], Instr.clock_skew_s ()) ];
    };
    {
      name = "lr_gc_minor_words_total";
      help = "OCaml GC minor words allocated.";
      kind = `Counter;
      samples = [ ([], gc.Gc.minor_words) ];
    };
    {
      name = "lr_gc_promoted_words_total";
      help = "OCaml GC words promoted from the minor heap.";
      kind = `Counter;
      samples = [ ([], gc.Gc.promoted_words) ];
    };
    {
      name = "lr_gc_major_words_total";
      help = "OCaml GC major words allocated.";
      kind = `Counter;
      samples = [ ([], gc.Gc.major_words) ];
    };
    {
      name = "lr_gc_minor_collections_total";
      help = "OCaml GC minor collections.";
      kind = `Counter;
      samples = [ ([], float_of_int gc.Gc.minor_collections) ];
    };
    {
      name = "lr_gc_major_collections_total";
      help = "OCaml GC major collections.";
      kind = `Counter;
      samples = [ ([], float_of_int gc.Gc.major_collections) ];
    };
    {
      name = "lr_gc_compactions_total";
      help = "OCaml GC heap compactions.";
      kind = `Counter;
      samples = [ ([], float_of_int gc.Gc.compactions) ];
    };
    {
      name = "lr_gc_heap_words";
      help = "OCaml GC major heap size in words.";
      kind = `Gauge;
      samples = [ ([], float_of_int gc.Gc.heap_words) ];
    };
  ]
