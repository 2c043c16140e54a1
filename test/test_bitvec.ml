module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_set_get () =
  let v = Bv.create 130 in
  check "fresh bit is 0" false (Bv.get v 0);
  Bv.set v 0 true;
  Bv.set v 64 true;
  Bv.set v 129 true;
  check "bit 0" true (Bv.get v 0);
  check "bit 64 (word boundary)" true (Bv.get v 64);
  check "bit 129 (last)" true (Bv.get v 129);
  check "bit 1 untouched" false (Bv.get v 1);
  Bv.set v 64 false;
  check "cleared" false (Bv.get v 64);
  check_int "popcount" 2 (Bv.popcount v)

let test_flip () =
  let v = Bv.create 70 in
  Bv.flip v 69;
  check "flip on" true (Bv.get v 69);
  Bv.flip v 69;
  check "flip off" false (Bv.get v 69)

let test_bounds () =
  let v = Bv.create 10 in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Bv: index out of bounds") (fun () ->
      ignore (Bv.get v 10));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Bv: index out of bounds") (fun () ->
      ignore (Bv.get v (-1)))

let test_int_roundtrip () =
  List.iter
    (fun n ->
      let v = Bv.of_int ~width:16 n in
      check_int (Printf.sprintf "roundtrip %d" n) n (Bv.to_int v))
    [ 0; 1; 2; 6; 255; 65535 ]

let test_msb_convention () =
  (* paper Example 1: (a2,a1,a0) = (1,1,0) encodes 6 *)
  let v = Bv.of_string "110" in
  check_int "110 reads 6" 6 (Bv.to_int v);
  check_str "to_string inverse" "110" (Bv.to_string v)

let test_fill () =
  let v = Bv.create 100 in
  Bv.fill v true;
  check_int "all ones" 100 (Bv.popcount v);
  Bv.fill v false;
  check_int "all zeros" 0 (Bv.popcount v)

let test_equal () =
  let a = Bv.of_string "10101" and b = Bv.of_string "10101" in
  check "equal" true (Bv.equal a b);
  Bv.flip b 0;
  check "unequal after flip" false (Bv.equal a b)

let test_rng_determinism () =
  let r1 = Rng.create 42 and r2 = Rng.create 42 in
  let a = Bv.random r1 200 and b = Bv.random r2 200 in
  check "same seed same draw" true (Bv.equal a b);
  let c = Bv.random r1 200 in
  check "stream advances" false (Bv.equal a c)

let test_rng_split_independent () =
  let r = Rng.create 7 in
  let s = Rng.split r in
  let a = Bv.random r 100 and b = Bv.random s 100 in
  check "split streams differ" false (Bv.equal a b)

(* The stream, recorded before the generator's state moved into a byte
   store: per seed, the first eight [bits64] draws; [biased_word] at
   0.03, 0.1, 0.5 and 0.9 on one fresh generator, then the draw after
   them; the first draws of a [split] child and of its parent after the
   split; those of [split_keyed] children 0 and 7 and of their (still
   unadvanced) parent. Every learned circuit depends on these draws. *)
let rng_golden =
  [
    ( 1,
      [
        0xBFEF8030DDC2D772L; 0x5F552CE482F2AA47L; 0x70335FC3DAF3D8A7L;
        0xF440FE3B62C79D2CL; 0x33BA2F29E7C168BBL; 0x98843F48A94B7866L;
        0x74AD4C24D41A25F8L; 0x2F9A1F13648EAB6EL;
      ],
      [
        0x1000000000C00000L; 0x0088000040000100L; 0xEC3ADD8A85BFA5EEL;
        0xFFBFFFFDFFFEEEDFL; 0x0ED4127B4D1B8CA4L;
      ],
      [ 0x55C55969ED403149L; 0x5F552CE482F2AA47L ],
      [ 0x9A8C65AAB0C3F7AAL; 0xD46E25D3ED8133D7L; 0xBFEF8030DDC2D772L ] );
    ( 42,
      [
        0x989B3F130A063869L; 0x290DB4BF2570DED7L; 0x2A990BE63A01B2D5L;
        0x0C4B6B24EF01890EL; 0xFB16A06E52EC10A7L; 0x3C30FC5FD50692C3L;
        0x4782C4B4C4FDF7C9L; 0x272404A0A3926552L;
      ],
      [
        0x0800000000000000L; 0x0200048000100040L; 0xE664FB166D3DC14CL;
        0xFEFFFBF7FFFDFFBBL; 0x771B665074D680E9L;
      ],
      [ 0x5599B3E06D073327L; 0x290DB4BF2570DED7L ],
      [ 0x4021E9572714FFC3L; 0x565EF66EA88D1FE8L; 0x989B3F130A063869L ] );
  ]

let test_rng_golden () =
  let check_words = Alcotest.(check (list int64)) in
  List.iter
    (fun (seed, bits, biased, split, keyed) ->
      let name = Printf.sprintf "seed %d: " seed in
      let r = Rng.create seed in
      check_words (name ^ "bits64") bits (List.init 8 (fun _ -> Rng.bits64 r));
      let r = Rng.create seed in
      let ws = List.map (Rng.biased_word r) [ 0.03; 0.1; 0.5; 0.9 ] in
      check_words (name ^ "biased_word") biased (ws @ [ Rng.bits64 r ]);
      let r = Rng.create seed in
      let c = Rng.split r in
      let child = Rng.bits64 c in
      check_words (name ^ "split") split [ child; Rng.bits64 r ];
      let r = Rng.create seed in
      let c0 = Rng.split_keyed r 0 and c7 = Rng.split_keyed r 7 in
      let k0 = Rng.bits64 c0 in
      let k7 = Rng.bits64 c7 in
      check_words (name ^ "split_keyed") keyed [ k0; k7; Rng.bits64 r ])
    rng_golden

(* the lane drawer against the vectors it replaces, on copies of one
   generator: same lane words, and both copies left in the same state *)
let prop_biased_lanes =
  QCheck.Test.make ~name:"random_biased_lanes == to_lanes of random_biased"
    ~count:40
    QCheck.(
      pair (int_range 0 100_000)
        (oneofl [ 0.0; 0.03; 0.1; 0.25; 0.5; 0.75; 0.9; 0.97; 1.0 ]))
    (fun (seed, p) ->
      List.for_all
        (fun (n, count) ->
          let r = Rng.create seed in
          ignore (Rng.bits64 r);
          let r' = Rng.copy r in
          let want =
            Bv.to_lanes n (Array.init count (fun _ -> Bv.random_biased r p n))
          in
          Bv.random_biased_lanes r' p ~count n = want
          && Rng.bits64 r = Rng.bits64 r')
        (List.concat_map
           (fun n -> List.map (fun count -> (n, count)) [ 0; 1; 2; 63; 64 ])
           [ 0; 1; 63; 64; 65; 130 ]))

(* the uniform drawer against the 32 [Bv.random] calls a truncated
   tree's majority leaf made, and against other counts and lengths *)
let prop_uniform_lanes =
  QCheck.Test.make ~name:"random_lanes == to_lanes of random" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      List.for_all
        (fun (n, count) ->
          let r = Rng.create seed in
          ignore (Rng.bits64 r);
          let r' = Rng.copy r in
          let want =
            Bv.to_lanes n (Array.init count (fun _ -> Bv.random r n))
          in
          Bv.random_lanes r' ~count n = want && Rng.bits64 r = Rng.bits64 r')
        (List.concat_map
           (fun n -> List.map (fun count -> (n, count)) [ 0; 1; 2; 32; 63; 64 ])
           [ 0; 1; 63; 64; 65; 130 ]))

(* words read and written against the bits they hold *)
let test_words () =
  let rng = Rng.create 12 in
  List.iter
    (fun n ->
      let v = Bv.random rng n in
      check_int "word count" (max 1 ((n + 63) / 64)) (Bv.num_words v);
      for i = 0 to n - 1 do
        check "bit i of word i / 64" (Bv.get v i)
          (Int64.logand (Int64.shift_right_logical (Bv.word v (i / 64)) (i mod 64)) 1L
          = 1L)
      done;
      let w = Bv.create n in
      for i = 0 to Bv.num_words v - 1 do
        Bv.set_word w i (Rng.bits64 rng);
        Bv.set_word w i (Bv.word v i)
      done;
      check "set_word copies" true (Bv.equal v w);
      for i = 0 to Bv.num_words v - 1 do
        let x = Bv.word v i in
        if x <> 0L then begin
          let rec low b =
            if Int64.logand (Int64.shift_right_logical x b) 1L = 1L then b
            else low (b + 1)
          in
          check_int "lowest_bit_word" (low 0) (Bv.lowest_bit_word x)
        end
      done;
      let f = Bv.create n in
      Bv.set_word f (Bv.num_words f - 1) (-1L);
      check_int "bits past the length dropped"
        (if n = 0 then 0 else if n mod 64 = 0 then 64 else n mod 64)
        (Bv.popcount f))
    [ 0; 1; 63; 64; 65; 130 ]

let test_biased_density () =
  let rng = Rng.create 3 in
  let v = Bv.random_biased rng 0.1 6400 in
  let density = Float.of_int (Bv.popcount v) /. 6400.0 in
  check "low bias is sparse" true (density < 0.25);
  let v = Bv.random_biased rng 0.9 6400 in
  let density = Float.of_int (Bv.popcount v) /. 6400.0 in
  check "high bias is dense" true (density > 0.75)

let test_sub_blit () =
  let v = Bv.of_string "110010" in
  let s = Bv.sub_bits v [ 1; 4; 5 ] in
  (* bits: v1=1, v4=1, v5=1 -> s = 111 *)
  check_str "sub_bits" "111" (Bv.to_string s);
  let dst = Bv.create 6 in
  Bv.blit_bits ~src:s ~dst [ 0; 2; 3 ];
  check "blit bit 0" true (Bv.get dst 0);
  check "blit bit 2" true (Bv.get dst 2);
  check "blit bit 3" true (Bv.get dst 3);
  check "blit leaves others" false (Bv.get dst 1)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"of_string/to_string roundtrip" ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 1 80) (Gen.oneofl [ '0'; '1' ]))
    (fun s -> Bv.to_string (Bv.of_string s) = s)

let prop_popcount =
  QCheck.Test.make ~name:"popcount matches naive count" ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 1 200) (Gen.oneofl [ '0'; '1' ]))
    (fun s ->
      let v = Bv.of_string s in
      Bv.popcount v = String.fold_left (fun a c -> if c = '1' then a + 1 else a) 0 s)

let naive_popcount w =
  let c = ref 0 in
  for k = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical w k) 1L = 1L then incr c
  done;
  !c

let test_popcount_word () =
  List.iter
    (fun (name, w) -> check_int name (naive_popcount w) (Bv.popcount_word w))
    [ ("0L", 0L); ("-1L", -1L); ("min_int", Int64.min_int); ("max_int", Int64.max_int) ];
  check_int "-1L has 64 bits" 64 (Bv.popcount_word (-1L));
  check_int "min_int has 1 bit" 1 (Bv.popcount_word Int64.min_int);
  let rng = Rng.create 91 in
  for _ = 1 to 500 do
    let w = Rng.bits64 rng in
    check_int "random word" (naive_popcount w) (Bv.popcount_word w)
  done

(* The bit-at-a-time transposition [Bv.to_lanes]/[of_lanes] replaced:
   one bit moved per step, the definition the block kernel must match. *)
let reference_to_lanes n vs =
  let count = Array.length vs in
  Array.init n (fun i ->
      let acc = ref 0L in
      for k = 0 to count - 1 do
        if Bv.get vs.(k) i then acc := Int64.logor !acc (Int64.shift_left 1L k)
      done;
      !acc)

let reference_of_lanes count lanes =
  let n = Array.length lanes in
  Array.init count (fun k ->
      let t = Bv.create n in
      Array.iteri
        (fun i w ->
          if Int64.logand (Int64.shift_right_logical w k) 1L = 1L then
            Bv.set t i true)
        lanes;
      t)

(* lane words against the reference, on widths and counts that straddle
   word and block boundaries *)
let test_lanes () =
  let rng = Rng.create 17 in
  let edges =
    List.concat_map
      (fun count -> List.map (fun n -> (n, count)) [ 0; 1; 64; 127; 128; 129; 200 ])
      [ 0; 1; 63; 64 ]
  in
  List.iter
    (fun (n, count) ->
      let name = Printf.sprintf "n=%d count=%d" n count in
      let vs = Array.init count (fun _ -> Bv.random rng n) in
      let lanes = Bv.to_lanes n vs in
      check_int (name ^ ": one lane word per bit") n (Array.length lanes);
      check (name ^ ": to_lanes") true (lanes = reference_to_lanes n vs);
      let back = Bv.of_lanes count lanes in
      check (name ^ ": round trip") true (Array.for_all2 Bv.equal vs back);
      (* lanes at or past [count] carry noise that must be ignored *)
      let noisy = Array.init n (fun _ -> Rng.bits64 rng) in
      check (name ^ ": of_lanes") true
        (Array.for_all2 Bv.equal
           (reference_of_lanes count noisy)
           (Bv.of_lanes count noisy)))
    ([ (0, 3); (1, 1); (5, 64); (63, 17); (64, 64); (65, 2); (130, 33) ] @ edges);
  check "random 0-bit vectors are all equal" true
    (Bv.equal (Bv.random rng 0) (Bv.create 0));
  let back = Bv.of_lanes 1 [| -1L; 2L |] in
  check_str "only lane 0 read" "01" (Bv.to_string back.(0));
  check "65 vectors rejected" true
    (try
       ignore (Bv.to_lanes 1 (Array.init 65 (fun _ -> Bv.create 1)));
       false
     with Invalid_argument _ -> true);
  check "length mismatch rejected" true
    (try
       ignore (Bv.to_lanes 2 [| Bv.create 3 |]);
       false
     with Invalid_argument _ -> true)

(* the store transposer against the reference, block by block, on
   counts and widths that straddle word and block boundaries; the store
   read back, and read back from noise past each block's last vector *)
let test_lane_store () =
  let rng = Rng.create 19 in
  List.iter
    (fun (n, count) ->
      let name = Printf.sprintf "n=%d count=%d" n count in
      let vs = Array.init count (fun _ -> Bv.random rng n) in
      let store = Bv.to_lane_store n vs in
      let blocks = (count + 63) / 64 in
      check_int (name ^ ": store size") (8 * n * blocks) (Bytes.length store);
      let block store b = Array.init n (fun i -> Bytes.get_int64_ne store (8 * ((b * n) + i))) in
      for b = 0 to blocks - 1 do
        let vs_b = Array.sub vs (64 * b) (min 64 (count - (64 * b))) in
        check
          (Printf.sprintf "%s: block %d" name b)
          true
          (block store b = reference_to_lanes n vs_b)
      done;
      check (name ^ ": round trip") true
        (Array.for_all2 Bv.equal vs (Bv.of_lane_store n store count));
      let noisy = Bytes.init (Bytes.length store) (fun _ -> Char.chr (Rng.int rng 256)) in
      check (name ^ ": of_lane_store ignores lanes past count") true
        (Array.for_all2 Bv.equal
           (Array.concat
              (List.init blocks (fun b ->
                   reference_of_lanes (min 64 (count - (64 * b))) (block noisy b))))
           (Bv.of_lane_store n noisy count)))
    (List.concat_map
       (fun count -> List.map (fun n -> (n, count)) [ 0; 1; 64; 65; 130 ])
       [ 0; 1; 63; 64; 65; 1000 ]);
  let raises name f =
    check name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "length mismatch rejected" (fun () ->
      Bv.to_lane_store 2 [| Bv.create 2; Bv.create 3 |]);
  raises "negative length rejected" (fun () -> Bv.to_lane_store (-1) [||]);
  raises "short store rejected" (fun () ->
      Bv.of_lane_store 3 (Bytes.create 23) 1);
  raises "negative count rejected" (fun () ->
      Bv.of_lane_store 3 (Bytes.create 24) (-1))

(* ---------------- against the int64-array reference ---------------- *)

module R = Bv_ref

(* [f ()] and [f' ()] return values [eq] accepts, or raise equal
   exceptions *)
let agree eq f f' =
  let run f = try Ok (f ()) with e -> Error e in
  let x = run f in
  match (x, run f') with
  | Ok x, Ok y -> eq x y
  | Error e, Error e' -> e = e'
  | _ -> false

let same v r =
  Bv.length v = r.R.len
  && List.init (Bv.num_words v) (Bv.word v) = Array.to_list r.R.words

let same_all vs rs = Array.length vs = Array.length rs && Array.for_all2 same vs rs

(* a mutation applied to a copy on each side: same outcome, same copy *)
let agree_mut v r f f' =
  let v = Bv.copy v and r = R.copy r in
  agree (fun () () -> same v r) (fun () -> f v) (fun () -> f' r)

(* Every function of [Bv] against the reference, at lengths that
   straddle word boundaries: results and copies agree, out-of-range
   indices raise the same exception, [compare] has the same sign (its
   order is signed, word by word), and both sides leave their copies
   of one generator in one state. *)
let prop_reference =
  QCheck.Test.make ~name:"Bv == int64-array reference" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed and rng' = Rng.create seed in
      let aux = Rng.create (seed + 1) in
      let sign x = compare x 0 in
      let each n =
        let draw f f' = (f rng, f' rng') in
        let a, a' = draw (fun g -> Bv.random g n) (fun g -> R.random g n) in
        let b, b' =
          draw (fun g -> Bv.random_biased g 0.2 n) (fun g -> R.random_biased g 0.2 n)
        in
        let nw = Bv.num_words a in
        let bits = [ -1; 0; n / 2; n - 1; n; n + 64 ] in
        let words = [ -1; 0; nw - 1; nw; max_int / 4 ] in
        let ws = List.init nw (Bv.word a) @ [ 0L; -1L; Int64.min_int ] in
        (* pairs for [equal] and [compare]: equal, unrelated, one bit
           apart (the sign bit of word 0 among them), longer *)
        let flipped i =
          let v = Bv.copy a and r = R.copy a' in
          if i >= 0 && i < n then (Bv.flip v i; R.flip r i);
          (v, r)
        in
        let pairs =
          [ (a, a'), flipped 0; (a, a'), (b, b'); (b, b'), (a, a');
            (a, a'), (Bv.copy a, R.copy a'); (a, a'), (Bv.create n, R.create n);
            (a, a'), (Bv.create (n + 1), R.create (n + 1)) ]
          @ List.map (fun i -> ((a, a'), flipped i)) [ 63; 64; n - 1 ]
        in
        let vecs count =
          let vs = Array.init count (fun _ -> Bv.random aux n) in
          (vs, Array.map (fun v -> R.of_string (Bv.to_string v)) vs)
        in
        let idxs =
          List.init (min n 5) (fun _ -> Rng.int aux n)
        in
        same a a' && same b b'
        && Bv.length a = R.length a'
        && nw = R.num_words a'
        && agree same (fun () -> Bv.create n) (fun () -> R.create n)
        && agree same (fun () -> Bv.create (-1)) (fun () -> R.create (-1))
        && List.for_all
             (fun i ->
               agree Int64.equal (fun () -> Bv.word a i) (fun () -> R.word a' i)
               && List.for_all
                    (fun w ->
                      agree_mut a a' (fun v -> Bv.set_word v i w) (fun r ->
                          R.set_word r i w))
                    ws)
             words
        && List.for_all
             (fun i ->
               agree Bool.equal (fun () -> Bv.get a i) (fun () -> R.get a' i)
               && agree_mut a a' (fun v -> Bv.set v i true) (fun r -> R.set r i true)
               && agree_mut a a' (fun v -> Bv.set v i false) (fun r ->
                      R.set r i false)
               && agree_mut a a' (fun v -> Bv.flip v i) (fun r -> R.flip r i))
             bits
        && List.for_all
             (fun ((x, x'), (y, y')) ->
               Bv.equal x y = R.equal x' y'
               && sign (Bv.compare x y) = sign (R.compare x' y'))
             pairs
        && agree_mut a a' (fun v -> Bv.fill v true) (fun r -> R.fill r true)
        && agree_mut a a' (fun v -> Bv.fill v false) (fun r -> R.fill r false)
        && Bv.popcount a = R.popcount a'
        && List.for_all
             (fun w ->
               Bv.popcount_word w = R.popcount_word w
               && agree Int.equal
                    (fun () -> Bv.lowest_bit_word w)
                    (fun () -> R.lowest_bit_word w))
             ws
        && same (Bv.copy a) (R.copy a')
        (* the word loops, against bit loops on the reference *)
        && (let ones = ref [] in
            Bv.iter_ones (fun i -> ones := i :: !ones) a;
            List.rev !ones = List.filter (R.get a') (List.init n Fun.id))
        && List.for_all
             (fun ((x, x'), (y, y')) ->
               let bit_loop f = List.for_all f (List.init n Fun.id) in
               agree Bool.equal
                 (fun () -> Bv.subset x y)
                 (fun () ->
                   if R.length x' <> R.length y' then invalid_arg "Bv.subset: length mismatch";
                   bit_loop (fun i -> (not (R.get x' i)) || R.get y' i))
               && agree Bool.equal
                    (fun () -> Bv.agree ~mask:b x y)
                    (fun () ->
                      if R.length x' <> n || R.length y' <> n then
                        invalid_arg "Bv.agree: length mismatch";
                      bit_loop (fun i -> (not (R.get b' i)) || R.get x' i = R.get y' i))
               && agree_mut y y'
                    (fun v -> Bv.blend ~mask:b ~src:x v)
                    (fun r ->
                      if R.length x' <> n || R.length r <> n then
                        invalid_arg "Bv.blend: length mismatch";
                      List.iter
                        (fun i -> if R.get b' i then R.set r i (R.get x' i))
                        (List.init n Fun.id)))
             pairs
        && List.for_all
             (fun count ->
               let vs, vs' = vecs count in
               agree ( = ) (fun () -> Bv.to_lanes n vs) (fun () -> R.to_lanes n vs')
               && (count = 0
                  || agree ( = )
                       (fun () -> Bv.to_lanes (n + 1) vs)
                       (fun () -> R.to_lanes (n + 1) vs')))
             [ 0; 1; 2; 63; 64; 65 ]
        && (let lanes = Array.init n (fun _ -> Rng.bits64 aux) in
            List.for_all
              (fun count ->
                agree same_all
                  (fun () -> Bv.of_lanes count lanes)
                  (fun () -> R.of_lanes count lanes))
              [ -1; 0; 1; 2; 63; 64; 65 ])
        && List.for_all
             (fun count ->
               agree ( = )
                 (fun () -> Bv.random_lanes rng ~count n)
                 (fun () -> R.random_lanes rng' ~count n)
               && agree ( = )
                    (fun () -> Bv.random_biased_lanes rng 0.9 ~count n)
                    (fun () -> R.random_biased_lanes rng' 0.9 ~count n))
             [ -1; 0; 1; 32; 64; 65 ]
        && List.for_all
             (fun width ->
               let x = Rng.int aux max_int in
               agree same
                 (fun () -> Bv.of_int ~width x)
                 (fun () -> R.of_int ~width x))
             [ -1; 0; min n 62; 63 ]
        && agree Int.equal (fun () -> Bv.to_int a) (fun () -> R.to_int a')
        && Bv.to_string a = R.to_string a'
        && agree same
             (fun () -> Bv.of_string (Bv.to_string b))
             (fun () -> R.of_string (R.to_string b'))
        && agree same (fun () -> Bv.of_string "01x") (fun () -> R.of_string "01x")
        && Format.asprintf "%a" Bv.pp a = Format.asprintf "%a" R.pp a'
        && (let seen = ref [] and seen' = ref [] in
            Bv.iteri (fun i x -> seen := (i, x) :: !seen) a;
            R.iteri (fun i x -> seen' := (i, x) :: !seen') a';
            !seen = !seen')
        && List.for_all
             (fun idxs ->
               let src = Bv.random aux (List.length idxs) in
               let src' = R.of_string (Bv.to_string src) in
               agree same (fun () -> Bv.sub_bits a idxs) (fun () -> R.sub_bits a' idxs)
               && agree_mut b b'
                    (fun v -> Bv.blit_bits ~src ~dst:v idxs)
                    (fun r -> R.blit_bits ~src:src' ~dst:r idxs))
             [ idxs; idxs @ [ n ] ]
      in
      List.for_all each [ 0; 1; 63; 64; 65; 130 ] && Rng.bits64 rng = Rng.bits64 rng')

let prop_flip_involution =
  QCheck.Test.make ~name:"double flip is identity" ~count:200
    QCheck.(pair (int_range 1 100) (int_range 0 1000))
    (fun (n, seed) ->
      let v = Bv.random (Rng.create seed) n in
      let w = Bv.copy v in
      let i = seed mod n in
      Bv.flip w i;
      Bv.flip w i;
      Bv.equal v w)

let tests =
  [
    Alcotest.test_case "set/get across words" `Quick test_set_get;
    Alcotest.test_case "flip" `Quick test_flip;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "int roundtrip" `Quick test_int_roundtrip;
    Alcotest.test_case "MSB-first convention (paper ex.1)" `Quick test_msb_convention;
    Alcotest.test_case "fill" `Quick test_fill;
    Alcotest.test_case "equal" `Quick test_equal;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng stream golden vectors" `Quick test_rng_golden;
    Alcotest.test_case "biased word density" `Quick test_biased_density;
    Alcotest.test_case "words" `Quick test_words;
    QCheck_alcotest.to_alcotest prop_uniform_lanes;
    Alcotest.test_case "sub_bits/blit_bits" `Quick test_sub_blit;
    Alcotest.test_case "popcount_word matches a bit loop" `Quick
      test_popcount_word;
    Alcotest.test_case "lane transposition" `Quick test_lanes;
    Alcotest.test_case "lane store == reference per block" `Quick test_lane_store;
    QCheck_alcotest.to_alcotest prop_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_popcount;
    QCheck_alcotest.to_alcotest prop_flip_involution;
    QCheck_alcotest.to_alcotest prop_biased_lanes;
    QCheck_alcotest.to_alcotest prop_reference;
  ]
