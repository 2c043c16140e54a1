let lines (p : Profile.t) =
  List.filter_map
    (fun (n : Profile.node) ->
      let us = int_of_float (Float.round (n.Profile.self_s *. 1e6)) in
      if us <= 0 then None
      else begin
        let stack =
          String.concat ";" (String.split_on_char '/' n.Profile.path)
        in
        Some (Printf.sprintf "%s %d" stack us)
      end)
    p.Profile.nodes

let to_string p = String.concat "" (List.map (fun l -> l ^ "\n") (lines p))
