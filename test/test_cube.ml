module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_literals () =
  let c = Cube.of_literals 5 [ (0, true); (3, false) ] in
  check_int "two literals" 2 (Cube.num_literals c);
  check "has 0" true (Cube.has_var c 0);
  check "phase 0" true (Cube.phase c 0);
  check "phase 3" false (Cube.phase c 3);
  check "no var 1" false (Cube.has_var c 1);
  Alcotest.check_raises "contradiction rejected"
    (Invalid_argument "Cube.add: contradictory literal") (fun () ->
      ignore (Cube.add c 0 false))

let test_satisfies () =
  let c = Cube.of_literals 4 [ (1, true); (2, false) ] in
  let a = Bv.of_string "0010" in
  (* bits: v0=0 v1=1 v2=0 v3=0 *)
  check "satisfying" true (Cube.satisfies c a);
  Bv.set a 2 true;
  check "violating" false (Cube.satisfies c a)

let test_force () =
  let c = Cube.of_literals 4 [ (0, true); (3, false) ] in
  let a = Bv.of_string "1010" in
  Cube.force c a;
  check "forced into cube" true (Cube.satisfies c a);
  check "untouched bit kept" true (Bv.get a 1)

let test_top_is_tautology () =
  let c = Cube.top 3 in
  check_int "no literals" 0 (Cube.num_literals c);
  check "covers anything" true (Cube.satisfies c (Bv.of_string "101"))

let test_contains () =
  let big = Cube.of_literals 4 [ (0, true) ] in
  let small = Cube.of_literals 4 [ (0, true); (2, false) ] in
  check "bigger contains smaller" true (Cube.contains big small);
  check "smaller does not contain bigger" false (Cube.contains small big)

let test_intersect () =
  let a = Cube.of_literals 4 [ (0, true) ] in
  let b = Cube.of_literals 4 [ (1, false) ] in
  (match Cube.intersect a b with
  | Some c ->
      check "meet has both" true (Cube.has_var c 0 && Cube.has_var c 1)
  | None -> Alcotest.fail "compatible cubes must intersect");
  let b' = Cube.of_literals 4 [ (0, false) ] in
  check "conflict detected" true (Cube.intersect a b' = None)

let test_merge_adjacent () =
  let a = Cube.of_string "1-1" and b = Cube.of_string "1-0" in
  (match Cube.merge_adjacent a b with
  | Some m -> check_str "adjacency law" "1--" (Cube.to_string m)
  | None -> Alcotest.fail "adjacent cubes must merge");
  let c = Cube.of_string "0-0" in
  check "distance 2 does not merge" true (Cube.merge_adjacent a c = None);
  let d = Cube.of_string "11-" in
  check "different care sets do not merge" true (Cube.merge_adjacent a d = None)

let test_pla_roundtrip () =
  let s = "1-0-1" in
  check_str "roundtrip" s (Cube.to_string (Cube.of_string s))

let test_cover_eval () =
  (* f = v1 v0' + v1' v0  (xor) over 2 vars *)
  let f = Cover.of_cubes 2 [ Cube.of_string "10"; Cube.of_string "01" ] in
  check "xor 00" false (Cover.eval f (Bv.of_string "00"));
  check "xor 01" true (Cover.eval f (Bv.of_string "01"));
  check "xor 10" true (Cover.eval f (Bv.of_string "10"));
  check "xor 11" false (Cover.eval f (Bv.of_string "11"))

let test_scc () =
  let f =
    Cover.of_cubes 3
      [ Cube.of_string "1--"; Cube.of_string "1-0"; Cube.of_string "01-" ]
  in
  let g = Cover.single_cube_containment f in
  check_int "contained cube dropped" 2 (Cover.num_cubes g)

let test_complement () =
  let f = Cover.of_cubes 2 [ Cube.of_string "1-" ] in
  let g = Cover.complement_exhaustive f in
  check "00 in complement" true (Cover.eval g (Bv.of_string "00"));
  check "10 not in complement" false (Cover.eval g (Bv.of_string "10"))

(* random cover over a small universe *)
let gen_cover n =
  QCheck.Gen.(
    let gen_cube =
      list_repeat n (oneofl [ '0'; '1'; '-' ]) >|= fun cs ->
      Cube.of_string (String.init n (fun i -> List.nth cs i))
    in
    list_size (int_range 1 6) gen_cube >|= Cover.of_cubes n)

let arb_cover n = QCheck.make (gen_cover n)

let eval_all n f =
  List.init (1 lsl n) (fun m ->
      let a = Bv.of_int ~width:n m in
      Cover.eval f a)

let prop_merge_preserves =
  QCheck.Test.make ~name:"merge_pass preserves semantics" ~count:200
    (arb_cover 5) (fun f -> eval_all 5 (Cover.merge_pass f) = eval_all 5 f)

let prop_scc_preserves =
  QCheck.Test.make ~name:"single_cube_containment preserves semantics"
    ~count:200 (arb_cover 5) (fun f ->
      eval_all 5 (Cover.single_cube_containment f) = eval_all 5 f)

let prop_complement =
  QCheck.Test.make ~name:"complement flips every minterm" ~count:50
    (arb_cover 4) (fun f ->
      let g = Cover.complement_exhaustive f in
      List.for_all2 ( <> ) (eval_all 4 f) (eval_all 4 g))

let prop_intersect_semantics =
  QCheck.Test.make ~name:"cube intersection = conjunction" ~count:300
    QCheck.(
      pair
        (make (QCheck.Gen.map Cube.of_string
                 QCheck.Gen.(string_size ~gen:(oneofl [ '0'; '1'; '-' ]) (return 5))))
        (make (QCheck.Gen.map Cube.of_string
                 QCheck.Gen.(string_size ~gen:(oneofl [ '0'; '1'; '-' ]) (return 5)))))
    (fun (a, b) ->
      List.for_all
        (fun m ->
          let x = Bv.of_int ~width:5 m in
          let lhs =
            match Cube.intersect a b with
            | None -> false
            | Some c -> Cube.satisfies c x
          in
          lhs = (Cube.satisfies a x && Cube.satisfies b x))
        (List.init 32 Fun.id))

(* ---------- word operations against the bit loops (Cover_ref) ---------- *)

let random_cube rng n ~care =
  let c = ref (Cube.top n) in
  for v = 0 to n - 1 do
    if Rng.int rng 100 < care then c := Cube.add !c v (Rng.bool rng)
  done;
  !c

(* Random cubes of every density at universes around the word
   boundaries: literals, PLA strings, satisfaction, forcing (of vectors
   and of lane words) and containment (of unrelated cubes, of a cube and
   one inside it, and of a cube and itself with one literal dropped or
   flipped) must all read as the bit loops do. *)
let test_word_ops_match_bit_loops () =
  let rng = Rng.create 41 in
  List.iter
    (fun n ->
      for trial = 1 to 200 do
        let ctx = Printf.sprintf "n = %d, trial %d" n trial in
        let care = [| 0; 5; 30; 70; 100 |].(Rng.int rng 5) in
        let c = random_cube rng n ~care in
        check (ctx ^ ": literals") true
          (Cube.literals c = Cover_ref.literals c);
        check_str (ctx ^ ": to_string") (Cover_ref.to_string c)
          (Cube.to_string c);
        let a = Bv.random rng n in
        check (ctx ^ ": satisfies") (Cover_ref.satisfies c a)
          (Cube.satisfies c a);
        let forced = Bv.copy a and want = Bv.copy a in
        Cube.force c forced;
        Cover_ref.force c want;
        check (ctx ^ ": force") true (Bv.equal forced want);
        check (ctx ^ ": forced satisfies") true (Cube.satisfies c forced);
        let vs = Array.init (Rng.int rng 65) (fun _ -> Bv.random rng n) in
        let lanes = Bv.to_lanes n vs in
        Cube.force_lanes c lanes;
        Array.iter (Cover_ref.force c) vs;
        check (ctx ^ ": force_lanes") true
          (Array.for_all2 Bv.equal (Bv.of_lanes (Array.length vs) lanes) vs);
        let d = random_cube rng n ~care in
        let inside =
          List.fold_left
            (fun acc (v, ph) ->
              if Cube.has_var acc v then acc else Cube.add acc v ph)
            c (Cube.literals d)
        in
        let pairs = [ (c, d); (d, c); (c, inside); (inside, c); (c, c) ] in
        let pairs =
          match Cube.literals c with
          | [] -> pairs
          | lits ->
              let v, ph = List.nth lits (Rng.int rng (List.length lits)) in
              let dropped = Cube.remove c v in
              let flipped = Cube.add dropped v (not ph) in
              (dropped, c) :: (c, dropped) :: (flipped, c) :: (c, flipped)
              :: pairs
        in
        List.iter
          (fun (big, small) ->
            check (ctx ^ ": contains") (Cover_ref.contains big small)
              (Cube.contains big small))
          pairs
      done)
    [ 1; 63; 64; 65; 130 ]

let tests =
  [
    Alcotest.test_case "literal construction" `Quick test_literals;
    Alcotest.test_case "satisfies" `Quick test_satisfies;
    Alcotest.test_case "force projects into cube" `Quick test_force;
    Alcotest.test_case "top cube is tautology" `Quick test_top_is_tautology;
    Alcotest.test_case "containment" `Quick test_contains;
    Alcotest.test_case "intersection" `Quick test_intersect;
    Alcotest.test_case "adjacency merging" `Quick test_merge_adjacent;
    Alcotest.test_case "PLA string roundtrip" `Quick test_pla_roundtrip;
    Alcotest.test_case "cover eval (xor)" `Quick test_cover_eval;
    Alcotest.test_case "single cube containment" `Quick test_scc;
    Alcotest.test_case "exhaustive complement" `Quick test_complement;
    Alcotest.test_case "word operations == bit loops" `Quick
      test_word_ops_match_bit_loops;
    QCheck_alcotest.to_alcotest prop_merge_preserves;
    QCheck_alcotest.to_alcotest prop_scc_preserves;
    QCheck_alcotest.to_alcotest prop_complement;
    QCheck_alcotest.to_alcotest prop_intersect_semantics;
  ]
