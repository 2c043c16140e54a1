module Instr = Lr_instr.Instr
module Json = Lr_instr.Json

type node = {
  path : string;
  name : string;
  depth : int;
  calls : int;
  total_s : float;
  self_s : float;
  counters : (string * int) list;
}

type t = {
  nodes : node list;
  wall_s : float;
  counters : (string * int) list;
}

(* ---------- building ---------- *)

type agg = {
  a_name : string;
  a_depth : int;
  mutable a_calls : int;
  mutable a_total : float;
  a_counters : (string, int ref) Hashtbl.t;
  mutable a_corder : string list;  (* reversed first-seen order *)
}

let name_of_path path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let depth_of_path path =
  String.fold_left (fun n c -> if c = '/' then n + 1 else n) 0 path

let parent_of_path path =
  match String.rindex_opt path '/' with
  | Some i -> Some (String.sub path 0 i)
  | None -> None

let bump tbl order key n =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + n
  | None ->
      Hashtbl.add tbl key (ref n);
      order := key :: !order

let of_events events =
  let tbl : (string, agg) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let gcount = Hashtbl.create 16 in
  let gorder = ref [] in
  let agg_of path name depth =
    match Hashtbl.find_opt tbl path with
    | Some a -> a
    | None ->
        let a =
          {
            a_name = name;
            a_depth = depth;
            a_calls = 0;
            a_total = 0.0;
            a_counters = Hashtbl.create 8;
            a_corder = [];
          }
        in
        Hashtbl.add tbl path a;
        order := path :: !order;
        a
  in
  List.iter
    (function
      | Instr.Span_begin { name; path; depth; _ } ->
          ignore (agg_of path name depth)
      | Instr.Span_end { name; path; dur_s; depth; _ } ->
          let a = agg_of path name depth in
          a.a_calls <- a.a_calls + 1;
          a.a_total <- a.a_total +. dur_s
      | Instr.Count { name; path; incr; _ } ->
          bump gcount gorder name incr;
          if path <> "" then begin
            let a = agg_of path (name_of_path path) (depth_of_path path) in
            let corder = ref a.a_corder in
            bump a.a_counters corder name incr;
            a.a_corder <- !corder
          end
      | Instr.Gauge _ -> ())
    events;
  (* effective totals, bottom-up: spans replayed through [Instr.absorb]
     keep their worker-side durations, which can exceed the brief
     merge-time parent span. Widening every parent to at least the sum
     of its children keeps self = total - children non-negative and
     stops replayed work from surfacing as unattributed self time at an
     ancestor (it is the children that really spent it) *)
  let children : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun path _ ->
      match parent_of_path path with
      | Some parent when Hashtbl.mem tbl parent ->
          let cur =
            Option.value ~default:[] (Hashtbl.find_opt children parent)
          in
          Hashtbl.replace children parent (path :: cur)
      | _ -> ())
    tbl;
  let eff : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let rec eff_of path =
    match Hashtbl.find_opt eff path with
    | Some v -> v
    | None ->
        let a = Hashtbl.find tbl path in
        let kid_sum =
          List.fold_left
            (fun s c -> s +. eff_of c)
            0.0
            (Option.value ~default:[] (Hashtbl.find_opt children path))
        in
        let v = Float.max a.a_total kid_sum in
        Hashtbl.add eff path v;
        v
  in
  Hashtbl.iter (fun path _ -> ignore (eff_of path)) tbl;
  let nodes =
    List.rev_map
      (fun path ->
        let a = Hashtbl.find tbl path in
        let kids =
          List.fold_left
            (fun s c -> s +. eff_of c)
            0.0
            (Option.value ~default:[] (Hashtbl.find_opt children path))
        in
        let total = eff_of path in
        {
          path;
          name = a.a_name;
          depth = a.a_depth;
          calls = a.a_calls;
          total_s = total;
          self_s = Float.max 0.0 (total -. kids);
          counters =
            List.rev_map
              (fun c -> (c, !(Hashtbl.find a.a_counters c)))
              a.a_corder;
        })
      !order
  in
  let wall_s =
    List.fold_left
      (fun acc n -> if parent_of_path n.path = None then acc +. n.total_s else acc)
      0.0 nodes
  in
  let counters =
    List.rev_map (fun c -> (c, !(Hashtbl.find gcount c))) !gorder
  in
  { nodes; wall_s; counters }

(* ---------- parsing ---------- *)

let event_of_json j =
  let str k = Option.bind (Json.member k j) Json.get_string in
  let fl k = Option.bind (Json.member k j) Json.get_float in
  let it k = Option.bind (Json.member k j) Json.get_int in
  match (str "ev", str "name", str "path", fl "ts") with
  | Some ev, Some name, Some path, Some ts -> (
      match ev with
      | "span_begin" ->
          Option.map
            (fun depth -> Instr.Span_begin { name; path; ts; depth })
            (it "depth")
      | "span_end" -> (
          match (fl "dur_s", it "depth") with
          | Some dur_s, Some depth ->
              Some (Instr.Span_end { name; path; ts; dur_s; depth })
          | _ -> None)
      | "count" -> (
          match (it "incr", it "total") with
          | Some incr, Some total ->
              Some (Instr.Count { name; path; ts; incr; total })
          | _ -> None)
      | "gauge" ->
          Option.map
            (fun value -> Instr.Gauge { name; path; ts; value })
            (fl "value")
      | _ -> None)
  | _ -> None

let events_of_jsonl_string s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let t = String.trim line in
        if t = "" then go (lineno + 1) acc rest
        else begin
          match Json.of_string t with
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
          | Ok (Json.Obj _ as j) -> (
              match event_of_json j with
              | Some ev -> go (lineno + 1) (ev :: acc) rest
              | None -> go (lineno + 1) acc rest (* unknown kind: skip *))
          | Ok _ ->
              Error
                (Printf.sprintf
                   "line %d: expected one JSON event object per line" lineno)
        end
  in
  go 1 [] lines

let of_jsonl_string s = Result.map of_events (events_of_jsonl_string s)

(* an unreadable or malformed file must come back as [Error], never an
   exception *)
let load_events path =
  try events_of_jsonl_string (In_channel.with_open_bin path In_channel.input_all)
  with
  | Sys_error m | Failure m -> Error m
  | e -> Error (Printexc.to_string e)

let load_file path = Result.map of_events (load_events path)

(* ---------- queries ---------- *)

let find t path = List.find_opt (fun n -> n.path = path) t.nodes

let top ?(k = 20) t =
  let sorted =
    List.sort
      (fun a b ->
        match compare b.self_s a.self_s with 0 -> compare a.path b.path | c -> c)
      t.nodes
  in
  List.filteri (fun i _ -> i < k) sorted

let is_leaf t =
  let parents = Hashtbl.create 64 in
  List.iter
    (fun n ->
      match parent_of_path n.path with
      | Some p -> Hashtbl.replace parents p ()
      | None -> ())
    t.nodes;
  fun n -> not (Hashtbl.mem parents n.path)

let in_subtree root n =
  n.path = root.path
  || String.length n.path > String.length root.path
     && String.sub n.path 0 (String.length root.path + 1) = root.path ^ "/"

(* summed self time of the leaf nodes (no recorded children) in the
   subtrees rooted at nodes matching [under]: the attributed share *)
let leaf_self_s t ~under =
  let leaf = is_leaf t in
  let roots = List.filter under t.nodes in
  List.fold_left
    (fun acc n ->
      if leaf n && List.exists (fun r -> in_subtree r n) roots then
        acc +. n.self_s
      else acc)
    0.0 t.nodes

(* summed self time of the whole subtree — the honest denominator for
   attribution. For spans replayed through [Instr.absorb], children keep
   their worker-side durations, which can exceed the brief merge-time
   parent span; the parent's [total_s] would then understate the subtree
   and push attribution past 100%. *)
let subtree_self_s t ~under =
  let roots = List.filter under t.nodes in
  List.fold_left
    (fun acc n ->
      if List.exists (fun r -> in_subtree r n) roots then acc +. n.self_s
      else acc)
    0.0 t.nodes

(* ---------- rendering ---------- *)

let pct num den = if den <= 0.0 then 0.0 else 100.0 *. num /. den

let render_top ?(k = 20) t =
  let buf = Buffer.create 4096 in
  let leaf = is_leaf t in
  Buffer.add_string buf
    (Printf.sprintf "hotspots by self time (wall %.3f s, %d spans):\n" t.wall_s
       (List.length t.nodes));
  Buffer.add_string buf
    (Printf.sprintf "  %4s %9s %6s %9s %7s  %s\n" "#" "self s" "self%"
       "total s" "calls" "path");
  List.iteri
    (fun i n ->
      Buffer.add_string buf
        (Printf.sprintf "  %4d %9.3f %5.1f%% %9.3f %7d  %s%s\n" (i + 1)
           n.self_s
           (pct n.self_s t.wall_s)
           n.total_s n.calls n.path
           (if leaf n then "" else " (+children)")))
    (top ~k t);
  (* depth-1 phase breakdown, with the conquer fan-out aggregated *)
  let depth1 = List.filter (fun n -> n.depth = 1) t.nodes in
  if depth1 <> [] then begin
    Buffer.add_string buf
      "\nphase attribution (leaf self time / subtree self time):\n";
    Buffer.add_string buf
      (Printf.sprintf "  %-24s %9s %9s %6s\n" "phase" "subtree s" "leaf s"
         "attr%");
    let row name total leaf_s =
      Buffer.add_string buf
        (Printf.sprintf "  %-24s %9.3f %9.3f %5.1f%%\n" name total leaf_s
           (pct leaf_s total))
    in
    List.iter
      (fun n ->
        let under m = m.path = n.path in
        row n.name (subtree_self_s t ~under) (leaf_self_s t ~under))
      depth1;
    let is_po n =
      n.depth = 1 && String.length n.name > 3 && String.sub n.name 0 3 = "po:"
    in
    (match List.filter is_po depth1 with
    | [] -> ()
    | _ ->
        row "po:* (conquer)"
          (subtree_self_s t ~under:is_po)
          (leaf_self_s t ~under:is_po))
  end;
  (* counter rates on the spans that own them *)
  let counted =
    List.filter_map
      (fun (n : node) ->
        match n.counters with
        | [] -> None
        | cs ->
            Some
              (List.map
                 (fun (c, v) ->
                   (n.path, c, v, if n.total_s > 0.0 then
                      float_of_int v /. n.total_s else Float.nan))
                 cs))
      t.nodes
    |> List.concat
  in
  if counted <> [] then begin
    let counted =
      List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a) counted
    in
    Buffer.add_string buf "\ncounter rates by span:\n";
    Buffer.add_string buf
      (Printf.sprintf "  %-40s %-18s %12s %12s\n" "span" "counter" "total"
         "per second");
    List.iteri
      (fun i (path, c, v, rate) ->
        if i < k then
          Buffer.add_string buf
            (Printf.sprintf "  %-40s %-18s %12d %12s\n" path c v
               (if Float.is_finite rate then Printf.sprintf "%.0f" rate
                else "-")))
      counted
  end;
  Buffer.contents buf

let render_diff ?(k = 20) old_t new_t =
  let buf = Buffer.create 4096 in
  let paths = Hashtbl.create 64 in
  let order = ref [] in
  let note side n =
    let o, nw =
      match Hashtbl.find_opt paths n.path with
      | Some (o, nw) -> (o, nw)
      | None ->
          order := n.path :: !order;
          (None, None)
    in
    Hashtbl.replace paths n.path
      (match side with `Old -> (Some n, nw) | `New -> (o, Some n))
  in
  List.iter (note `Old) old_t.nodes;
  List.iter (note `New) new_t.nodes;
  let rows =
    List.rev_map
      (fun path ->
        let o, nw = Hashtbl.find paths path in
        let self = function Some n -> n.self_s | None -> 0.0 in
        let total = function Some n -> n.total_s | None -> 0.0 in
        (path, self o, self nw, total o, total nw))
      !order
  in
  let rows =
    List.sort
      (fun (_, so, sn, _, _) (_, so', sn', _, _) ->
        compare (Float.abs (sn' -. so')) (Float.abs (sn -. so)))
      rows
  in
  Buffer.add_string buf
    (Printf.sprintf "profile diff (wall %.3f s -> %.3f s, %+.3f s):\n"
       old_t.wall_s new_t.wall_s
       (new_t.wall_s -. old_t.wall_s));
  Buffer.add_string buf
    (Printf.sprintf "  %9s %9s %9s  %s\n" "old self" "new self" "delta" "path");
  List.iteri
    (fun i (path, so, sn, _, _) ->
      if i < k then
        Buffer.add_string buf
          (Printf.sprintf "  %9.3f %9.3f %+9.3f  %s\n" so sn (sn -. so) path))
    rows;
  (* counter deltas *)
  let old_c = old_t.counters in
  let merged = Hashtbl.create 16 in
  let corder = ref [] in
  List.iter
    (fun (c, v) ->
      if not (Hashtbl.mem merged c) then corder := c :: !corder;
      Hashtbl.replace merged c (v, 0))
    old_c;
  List.iter
    (fun (c, v) ->
      match Hashtbl.find_opt merged c with
      | Some (o, _) -> Hashtbl.replace merged c (o, v)
      | None ->
          corder := c :: !corder;
          Hashtbl.replace merged c (0, v))
    new_t.counters;
  if !corder <> [] then begin
    Buffer.add_string buf "\ncounter totals:\n";
    Buffer.add_string buf
      (Printf.sprintf "  %12s %12s %12s  %s\n" "old" "new" "delta" "counter");
    List.iter
      (fun c ->
        let o, n = Hashtbl.find merged c in
        if o <> n then
          Buffer.add_string buf
            (Printf.sprintf "  %12d %12d %+12d  %s\n" o n (n - o) c))
      (List.rev !corder)
  end;
  Buffer.contents buf
