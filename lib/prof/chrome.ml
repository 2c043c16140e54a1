module Instr = Lr_instr.Instr
module Json = Lr_instr.Json

let write out events =
  let t0 = match events with e :: _ -> Instr.ts e | [] -> 0.0 in
  let event name ph ts args =
    Json.Obj
      ([
         ("name", Json.String name);
         ("cat", Json.String "lr");
         ("ph", Json.String ph);
         ("ts", Json.Float ((ts -. t0) *. 1e6));
         ("pid", Json.Int 1);
         ("tid", Json.Int 1);
       ]
      @ match args with None -> [] | Some v -> [ ("args", Json.Obj [ (name, v) ]) ])
  in
  out "[";
  List.iteri
    (fun i ev ->
      out (if i = 0 then "\n" else ",\n");
      out
        (Json.to_string
           (match ev with
           | Instr.Span_begin { name; ts; _ } -> event name "B" ts None
           | Instr.Span_end { name; ts; _ } -> event name "E" ts None
           | Instr.Count { name; ts; total; _ } ->
               event name "C" ts (Some (Json.Int total))
           | Instr.Gauge { name; ts; value; _ } ->
               event name "C" ts (Some (Json.Float value)))))
    events;
  out "\n]\n"
