(* Second cover suite: the bucketed merge on larger covers, dedup, and
   pretty-printing / PLA behaviours. *)

module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_dedup () =
  let c =
    Cover.of_cubes 3 [ Cube.of_string "1-0"; Cube.of_string "1-0"; Cube.of_string "01-" ]
  in
  check_int "duplicates dropped" 2 (Cover.num_cubes (Cover.dedup c))

let test_merge_minterm_cover_collapses () =
  (* all 2^4 minterms merge down to the single tautology cube *)
  let cubes =
    List.init 16 (fun m ->
        let c = ref (Cube.top 4) in
        for v = 0 to 3 do
          c := Cube.add !c v ((m lsr v) land 1 = 1)
        done;
        !c)
  in
  let merged = Cover.merge_pass (Cover.of_cubes 4 cubes) in
  check_int "collapsed to one cube" 1 (Cover.num_cubes merged);
  check_int "tautology" 0 (Cover.num_literals merged)

let test_merge_parity_does_not_collapse () =
  (* the 8 odd-parity minterms of 4 vars admit no adjacent merges *)
  let cubes =
    List.init 16 (fun m ->
        if
          (m land 1) lxor ((m lsr 1) land 1) lxor ((m lsr 2) land 1)
          lxor ((m lsr 3) land 1)
          = 1
        then
          Some
            (let c = ref (Cube.top 4) in
             for v = 0 to 3 do
               c := Cube.add !c v ((m lsr v) land 1 = 1)
             done;
             !c)
        else None)
    |> List.filter_map Fun.id
  in
  let merged = Cover.merge_pass (Cover.of_cubes 4 cubes) in
  check_int "parity is merge-immune" 8 (Cover.num_cubes merged)

(* sampled semantic equality on a universe too big to enumerate *)
let sampled_equal rng n f g =
  let ok = ref true in
  for _ = 1 to 2000 do
    let a = Bv.random rng n in
    if Cover.eval f a <> Cover.eval g a then ok := false
  done;
  !ok

let prop_merge_preserves_large =
  QCheck.Test.make ~name:"bucketed merge preserves semantics on 24 vars"
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 24 in
      let cube () =
        let c = ref (Cube.top n) in
        for v = 0 to n - 1 do
          match Rng.int rng 3 with
          | 0 -> c := Cube.add !c v false
          | 1 -> c := Cube.add !c v true
          | _ -> ()
        done;
        !c
      in
      let cover = Cover.of_cubes n (List.init 200 (fun _ -> cube ())) in
      let merged = Cover.merge_pass cover in
      Cover.num_cubes merged <= Cover.num_cubes cover
      && sampled_equal (Rng.split rng) n cover merged)

let test_pp_and_pla () =
  let c = Cover.of_cubes 3 [ Cube.of_string "1-0"; Cube.of_string "011" ] in
  let pla = Cover.to_pla c in
  check "pla has both rows" true
    (String.split_on_char '\n' pla |> List.length = 2);
  let back = Cover.of_pla pla in
  check_int "roundtrip cube count" 2 (Cover.num_cubes back);
  let s =
    Format.asprintf "%a" (Cover.pp ~names:(Printf.sprintf "x%d")) c
  in
  check "pretty form mentions x2" true
    (String.length s > 0
    &&
    let rec contains i =
      i + 2 <= String.length s && (String.sub s i 2 = "x2" || contains (i + 1))
    in
    contains 0)

let test_empty_cover_behaviour () =
  let e = Cover.empty 4 in
  check "eval false" false (Cover.eval e (Bv.create 4));
  check_int "merge of empty" 0 (Cover.num_cubes (Cover.merge_pass e));
  check_int "dedup of empty" 0 (Cover.num_cubes (Cover.dedup e))

(* ---------- merge_pass against its pre-word code (Cover_ref) ---------- *)

let same_cubes a b = Cover.cubes a = Cover.cubes b

(* Covers whose cubes share a few care sets, so that many merge, at
   universes around the word boundaries, and one past the 1 024 cubes
   above which containment is skipped: the merges, their order and the
   containment filter must be the reference's. *)
let test_merge_pass_matches_reference () =
  let rng = Rng.create 51 in
  List.iter
    (fun (n, size) ->
      for trial = 1 to 12 do
        let cares =
          Array.init (1 + Rng.int rng 4) (fun _ ->
              let p = [| 10; 40; 90 |].(Rng.int rng 3) in
              List.filter (fun _ -> Rng.int rng 100 < p) (List.init n Fun.id))
        in
        let cube () =
          let c = ref (Cube.top n) in
          List.iter
            (fun v -> c := Cube.add !c v (Rng.bool rng))
            cares.(Rng.int rng (Array.length cares));
          !c
        in
        let f = Cover.of_cubes n (List.init size (fun _ -> cube ())) in
        let ctx = Printf.sprintf "n = %d, %d cubes, trial %d" n size trial in
        check (ctx ^ ": merge_pass") true
          (same_cubes (Cover.merge_pass f) (Cover_ref.merge_pass f));
        check (ctx ^ ": single_cube_containment") true
          (same_cubes
             (Cover.single_cube_containment f)
             (Cover_ref.single_cube_containment f))
      done)
    [ (1, 4); (5, 40); (24, 300); (63, 200); (64, 200); (65, 200); (130, 100);
      (12, 1500) ]

(* The covers of a tree truncated by its query budget — majority leaves
   included — on case_14's two tree-learned outputs and case_18's first:
   the shape the merge sees on the approximate cases. *)
let truncated_tree case ~output ~budget =
  let box = Lr_cases.Cases.blackbox ~budget (Lr_cases.Cases.find case) in
  let arity = Lr_blackbox.Blackbox.num_inputs box in
  Lr_fbdt.Fbdt.learn Lr_fbdt.Fbdt.default_config ~rng:(Rng.create 1)
    (Lr_fbdt.Oracle.of_box ~arity box ~output)

let test_merge_pass_on_case_covers () =
  List.iter
    (fun (case, output, budget) ->
      let r = truncated_tree case ~output ~budget in
      let ctx = Printf.sprintf "%s output %d" case output in
      check (ctx ^ ": truncated") false r.Lr_fbdt.Fbdt.complete;
      List.iter
        (fun f ->
          check (ctx ^ ": merge_pass") true
            (same_cubes (Cover.merge_pass f) (Cover_ref.merge_pass f)))
        [ r.Lr_fbdt.Fbdt.onset; r.Lr_fbdt.Fbdt.offset ])
    [
      ("case_14", 0, 1_000_000); ("case_14", 1, 1_000_000);
      ("case_18", 0, 2_000_000);
    ]

let tests =
  [
    Alcotest.test_case "dedup" `Quick test_dedup;
    Alcotest.test_case "full minterm cover collapses" `Quick
      test_merge_minterm_cover_collapses;
    Alcotest.test_case "parity resists merging" `Quick
      test_merge_parity_does_not_collapse;
    Alcotest.test_case "PLA/pp behaviours" `Quick test_pp_and_pla;
    Alcotest.test_case "empty cover" `Quick test_empty_cover_behaviour;
    QCheck_alcotest.to_alcotest prop_merge_preserves_large;
    Alcotest.test_case "merge_pass == pre-word reference" `Quick
      test_merge_pass_matches_reference;
    Alcotest.test_case "merge_pass == reference on truncated trees" `Quick
      test_merge_pass_on_case_covers;
  ]
