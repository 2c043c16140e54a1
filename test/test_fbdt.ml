module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module Cover = Lr_cube.Cover
module Oracle = Lr_fbdt.Oracle
module Fbdt = Lr_fbdt.Fbdt
module Cube = Lr_cube.Cube
module Box = Lr_blackbox.Blackbox
module Faults = Lr_faults.Faults
module Histogram = Lr_report.Histogram

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg = { Fbdt.default_config with Fbdt.node_rounds = 32; max_nodes = 2048 }

(* check that onset covers exactly the 1-minterms on small universes *)
let exact_on n f result =
  let ok = ref true in
  for m = 0 to (1 lsl n) - 1 do
    let a = Bv.of_int ~width:n m in
    if Cover.eval result.Fbdt.onset a <> f a then ok := false;
    (* onset and offset must partition the space for a complete tree *)
    if Cover.eval result.Fbdt.onset a = Cover.eval result.Fbdt.offset a then
      ok := false
  done;
  !ok

let test_learn_and () =
  let f a = Bv.get a 0 && Bv.get a 2 in
  let oracle = Oracle.of_fun ~arity:4 f in
  let r = Fbdt.learn cfg ~rng:(Rng.create 1) oracle in
  check "exact" true (exact_on 4 f r);
  check "complete" true r.Fbdt.complete;
  check_int "single onset cube" 1 (Cover.num_cubes r.Fbdt.onset)

let test_learn_majority () =
  let f a =
    let c = ref 0 in
    for i = 0 to 2 do
      if Bv.get a i then incr c
    done;
    !c >= 2
  in
  let oracle = Oracle.of_fun ~arity:3 f in
  let r = Fbdt.learn cfg ~rng:(Rng.create 2) oracle in
  check "exact" true (exact_on 3 f r)

let test_learn_xor_deep () =
  (* parity of 4: forces the tree to full depth on those variables *)
  let f a = Bv.popcount a land 1 = 1 in
  let oracle = Oracle.of_fun ~arity:4 f in
  let r = Fbdt.learn cfg ~rng:(Rng.create 3) oracle in
  check "exact" true (exact_on 4 f r);
  check_int "parity needs 8 onset cubes" 8 (Cover.num_cubes r.Fbdt.onset)

let test_truth_ratio_sampled () =
  let f a = Bv.get a 0 in
  let oracle = Oracle.of_fun ~arity:2 f in
  let r = Fbdt.learn cfg ~rng:(Rng.create 4) oracle in
  check "root ratio near the truth" true
    (r.Fbdt.truth_ratio > 0.2 && r.Fbdt.truth_ratio < 0.8)

let test_support_restriction () =
  (* function depends on var 3 but support claims only vars 0..2: the tree
     must still terminate (majority leaves), flagged incomplete *)
  let f a = Bv.get a 3 && Bv.get a 0 in
  let oracle = Oracle.of_fun ~arity:4 f in
  let r = Fbdt.learn ~support:[ 0; 1; 2 ] cfg ~rng:(Rng.create 5) oracle in
  check "terminates incomplete" false r.Fbdt.complete

let test_constant_functions () =
  let always b _ = b in
  let r_true =
    Fbdt.learn cfg ~rng:(Rng.create 6) (Oracle.of_fun ~arity:3 (always true))
  in
  check_int "constant 1: one tautology onset cube" 1
    (Cover.num_cubes r_true.Fbdt.onset);
  check_int "constant 1: no offset" 0 (Cover.num_cubes r_true.Fbdt.offset);
  let r_false =
    Fbdt.learn cfg ~rng:(Rng.create 7) (Oracle.of_fun ~arity:3 (always false))
  in
  check_int "constant 0: no onset" 0 (Cover.num_cubes r_false.Fbdt.onset)

(* an exhaustive table against [f] on every assignment of [n] inputs:
   entry [m] is the output on the minterm whose bit [j] is support
   element [j]'s value, and the ratio is the table's share of ones *)
let table_exact n ~support f (table, ratio) =
  let ok = ref true in
  for m = 0 to (1 lsl n) - 1 do
    let a = Bv.of_int ~width:n m in
    let index =
      List.mapi (fun j v -> if Bv.get a v then 1 lsl j else 0) support
      |> List.fold_left ( lor ) 0
    in
    if table.(index) <> f a then ok := false
  done;
  let ones = Array.fold_left (fun c b -> if b then c + 1 else c) 0 table in
  !ok && ratio = Float.of_int ones /. Float.of_int (Array.length table)

let test_exhaustive () =
  let f a = (Bv.get a 1 && Bv.get a 4) || Bv.get a 2 in
  let used = ref 0 in
  let oracle =
    Oracle.of_fun ~arity:6 (fun a ->
        incr used;
        f a)
  in
  let support = [ 1; 2; 4 ] in
  let r = Fbdt.learn_exhaustive ~support oracle in
  check "exact on every assignment" true (table_exact 6 ~support f r);
  check_int "2^3 minterms enumerated" 8 (Array.length (fst r));
  check_int "one query per minterm" 8 !used

let test_exhaustive_rejects_wide_support () =
  let oracle = Oracle.of_fun ~arity:30 (fun _ -> false) in
  check "wide support rejected" true
    (try
       ignore (Fbdt.learn_exhaustive ~support:(List.init 21 Fun.id) oracle);
       false
     with Invalid_argument _ -> true)

let test_budget_approximation () =
  (* oracle exhausts after 2000 queries: the learner must finish with
     majority-approximated leaves *)
  let used = ref 0 in
  let f a = (Bv.get a 0 && Bv.get a 1) || (Bv.get a 2 && Bv.get a 3) in
  let oracle =
    {
      (Oracle.of_fun ~arity:8 (fun a ->
           incr used;
           f a))
      with
      exhausted = (fun () -> !used > 2000);
    }
  in
  let r = Fbdt.learn cfg ~rng:(Rng.create 10) oracle in
  check "incomplete" false r.Fbdt.complete;
  (* the approximation is majority-0 here (f is mostly 0) *)
  check "still produced covers" true
    (Cover.num_cubes r.Fbdt.onset + Cover.num_cubes r.Fbdt.offset > 0)

let test_early_stopping_epsilon () =
  (* f is 1 on a single minterm of 8 vars (P(1) = 1/256): with a large
     epsilon, the root is already within epsilon of constant 0 *)
  let f a = Bv.to_int a = 173 in
  let oracle = Oracle.of_fun ~arity:8 f in
  let eager = { cfg with Fbdt.leaf_epsilon = 0.2 } in
  let r = Fbdt.learn eager ~rng:(Rng.create 11) oracle in
  check "stopped immediately" true (r.Fbdt.nodes_expanded <= 3);
  check_int "approximated as constant 0" 0 (Cover.num_cubes r.Fbdt.onset)

let prop_exhaustive_exact =
  QCheck.Test.make ~name:"exhaustive conquest is exact on random functions"
    ~count:50
    QCheck.(int_range 0 255)
    (fun tt ->
      (* 3-input function from an 8-bit truth table *)
      let f a = (tt lsr Bv.to_int a) land 1 = 1 in
      let oracle = Oracle.of_fun ~arity:3 f in
      let support = [ 0; 1; 2 ] in
      table_exact 3 ~support f (Fbdt.learn_exhaustive ~support oracle))

let prop_tree_exact_when_complete =
  QCheck.Test.make ~name:"complete trees are exact" ~count:30
    QCheck.(int_range 0 65535)
    (fun tt ->
      let f a = (tt lsr Bv.to_int a) land 1 = 1 in
      let oracle = Oracle.of_fun ~arity:4 f in
      let r = Fbdt.learn cfg ~rng:(Rng.create tt) oracle in
      (not r.Fbdt.complete) || exact_on 4 f r)

let test_tree_structure () =
  let f a = (Bv.get a 0 && Bv.get a 1) || Bv.get a 2 in
  let oracle = Oracle.of_fun ~arity:3 f in
  let r = Fbdt.learn cfg ~rng:(Rng.create 21) oracle in
  let t = r.Fbdt.tree in
  (* the tree classifies exactly like the covers *)
  for m = 0 to 7 do
    let a = Bv.of_int ~width:3 m in
    check "tree = cover" true (Fbdt.classify t a = Cover.eval r.Fbdt.onset a);
    check "tree = function" true (Fbdt.classify t a = f a)
  done;
  check "depth bounded by support" true (Fbdt.tree_depth t <= 3);
  check_int "leaves = onset + offset cubes"
    (Cover.num_cubes r.Fbdt.onset + Cover.num_cubes r.Fbdt.offset)
    (Fbdt.tree_leaves t)

let test_tree_dot () =
  let f a = Bv.get a 0 <> Bv.get a 1 in
  let oracle = Oracle.of_fun ~arity:2 f in
  let r = Fbdt.learn cfg ~rng:(Rng.create 22) oracle in
  let dot = Fbdt.tree_to_dot ~names:(Printf.sprintf "x%d") r.Fbdt.tree in
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  check "digraph header" true (contains "digraph fbdt");
  check "has a split node" true (contains "shape=circle");
  check "has leaves" true (contains "shape=box");
  check "closing brace" true (contains "}")

(* The vector form of [Fbdt.sample_node] the lane-word version replaced:
   a copied, bit-flipped vector per toggled pattern and per-bit counting,
   each vector asked of the function [f] itself. *)
let reference_sample_node cfg ~rng ~arity:n f cube free =
  let query = Array.map f in
  let dependency = Array.make n 0 in
  let ones = ref 0 and total = ref 0 and done_rounds = ref 0 in
  while !done_rounds < cfg.Fbdt.node_rounds do
    let blk = min 64 (cfg.Fbdt.node_rounds - !done_rounds) in
    let biases = cfg.Fbdt.biases in
    let bias = biases.(!done_rounds / 8 mod Array.length biases) in
    let base =
      Array.init blk (fun _ ->
          let a = Bv.random_biased rng bias n in
          Cube.force cube a;
          a)
    in
    let base_out = query base in
    Array.iter (fun b -> if b then incr ones) base_out;
    total := !total + blk;
    Array.iter
      (fun i ->
        let flipped =
          Array.map
            (fun a ->
              let a' = Bv.copy a in
              Bv.flip a' i;
              a')
            base
        in
        let out = query flipped in
        for k = 0 to blk - 1 do
          if out.(k) then incr ones;
          if out.(k) <> base_out.(k) then dependency.(i) <- dependency.(i) + 1
        done;
        total := !total + blk)
      free;
    done_rounds := !done_rounds + blk
  done;
  (dependency, if !total = 0 then 0.0 else Float.of_int !ones /. Float.of_int !total)

(* random functions over up to 40 virtual inputs, random node cubes and
   free sets, round counts that are and are not multiples of 64: the word
   path must reproduce the reference's statistics and its query count *)
let test_sample_node_matches_reference () =
  let rng = Rng.create 33 in
  for trial = 0 to 39 do
    let n = 1 + Rng.int rng 40 in
    let terms =
      List.init (1 + Rng.int rng 4) (fun _ ->
          List.init (1 + Rng.int rng 3) (fun _ -> (Rng.int rng n, Rng.bool rng)))
    in
    let f a =
      List.exists (List.for_all (fun (v, b) -> Bv.get a v = b)) terms
      <> (trial mod 2 = 0 && Bv.get a (n - 1))
    in
    let cube =
      Cube.of_literals n
        (List.filter_map
           (fun v -> if Rng.int rng 5 = 0 then Some (v, Rng.bool rng) else None)
           (List.init n Fun.id))
    in
    let free =
      Array.of_list
        (List.filter
           (fun v -> (not (Cube.has_var cube v)) && Rng.int rng 4 > 0)
           (List.init n Fun.id))
    in
    let node_rounds = [| 1; 60; 64; 100; 200 |].(trial mod 5) in
    let cfg = { cfg with Fbdt.node_rounds } in
    let counted () =
      let used = ref 0 in
      ( used,
        fun a ->
          incr used;
          f a )
    in
    let used_w, fw = counted () and used_v, fv = counted () in
    let seed = 100 + trial in
    let got =
      Fbdt.sample_node cfg ~rng:(Rng.create seed) (Oracle.of_fun ~arity:n fw)
        cube free
    in
    let want =
      reference_sample_node cfg ~rng:(Rng.create seed) ~arity:n fv cube free
    in
    check (Printf.sprintf "trial %d: dependency and ratio" trial) true
      (got = want);
    check_int (Printf.sprintf "trial %d: queries" trial) !used_v !used_w
  done

(* ---------- exhaustive tables: lane-word blocks against per-row vectors *)

(* A virtual input domain over a box, as the learner builds one: plain
   (the box's own inputs), or with a delegate, virtual input [ni], that
   some box inputs follow — as it is, complemented, or pinned to a
   constant — in place of their own virtual inputs. *)
type follow = Same | Flip | Zero | One

let to_full_words ni follows vw =
  let full = Array.sub vw 0 ni in
  List.iter
    (fun (s, f) ->
      full.(s) <-
        (match f with
        | Same -> vw.(ni)
        | Flip -> Int64.lognot vw.(ni)
        | Zero -> 0L
        | One -> -1L))
    follows;
  full

let to_full_vec ni follows va =
  let full = Bv.create ni in
  for i = 0 to ni - 1 do
    Bv.set full i (Bv.get va i)
  done;
  let d = Bv.length va > ni && Bv.get va ni in
  List.iter
    (fun (s, f) ->
      Bv.set full s
        (match f with Same -> d | Flip -> not d | Zero -> false | One -> true))
    follows;
  full

(* the vector form the block form replaced: one vector per minterm, all
   asked in one [query_many] call *)
let reference_table box ~output ~arity follows support =
  let k = List.length support in
  let rows =
    Array.init (1 lsl k) (fun m ->
        let va = Bv.create arity in
        List.iteri (fun j v -> Bv.set va v ((m lsr j) land 1 = 1)) support;
        to_full_vec (Box.num_inputs box) follows va)
  in
  let table = Array.map (fun o -> Bv.get o output) (Box.query_many box rows) in
  let ones = Array.fold_left (fun c b -> if b then c + 1 else c) 0 table in
  (table, Float.of_int ones /. Float.of_int (1 lsl k))

(* a random function of [ni] inputs and [no] outputs: a random circuit,
   or a hash of the assignment *)
let random_box rng ~ni ~no =
  if Rng.bool rng then
    let ops =
      List.init (4 * ni) (fun _ ->
          (Rng.int rng 3, Rng.int rng 1000, Rng.int rng 1000))
    in
    Box.of_netlist (Prop.build_netlist { Prop.ni; no; ops })
  else
    let salt = Rng.int rng 1_000_000 in
    Box.of_function
      ~input_names:(Array.init ni (Printf.sprintf "i%d"))
      ~output_names:(Array.init no (Printf.sprintf "o%d"))
      (fun a ->
        let h = Hashtbl.hash (salt, Bv.to_string a) in
        Bv.of_int ~width:no (h lxor (h lsr 7)))

(* Tables of k = 0..10 support inputs (one partial block, one block,
   several blocks) on random functions, plain and delegate domains: the
   block entry must give the vector reference's table and ratio, charge
   the same queries to the same span, and weigh the latency histogram
   the same. Under a fault schedule (failures, spikes and corruption of
   the read output), a sequence of tables on one box must replay the
   reference's answers, retries and fault counters: each table is one
   batch, as one [query_many] is. *)
let test_exhaustive_blocks_match_reference () =
  let rng = Rng.create 77 in
  let corrupted = ref 0 in
  for trial = 0 to 23 do
    let ni = 10 + Rng.int rng 8 and no = 1 + Rng.int rng 3 in
    let seed = Rng.int rng 1_000_000 in
    let make () = random_box (Rng.create seed) ~ni ~no in
    let delegate = trial mod 2 = 1 in
    let arity = if delegate then ni + 1 else ni in
    let follows =
      if delegate then
        List.filter_map
          (fun s ->
            if Rng.int rng 3 = 0 then
              Some (s, [| Same; Flip; Zero; One |].(Rng.int rng 4))
            else None)
          (List.init ni Fun.id)
      else []
    in
    let output = Rng.int rng no in
    let faulty = trial mod 4 >= 2 in
    let arm box =
      if faulty then begin
        Box.set_faults ~key:trial box
          (Some
             {
               Faults.none with
               Faults.seed = trial;
               fail_p = 0.4;
               fail_burst = 2;
               latency_p = 0.5;
               latency_s = 0.001;
               corruption = Some Faults.Flip;
               victim = output;
               onset = 300;
               duration = 700;
             });
        Box.set_retry box (Faults.retry 4)
      end
    in
    let word_box = make () and vec_box = make () in
    arm word_box;
    arm vec_box;
    let oracle =
      Oracle.of_box ~to_full:(to_full_words ni follows) ~arity word_box ~output
    in
    for k = 0 to 10 do
      let ctx = Printf.sprintf "trial %d, k = %d" trial k in
      let support =
        let pool = Array.init arity Fun.id in
        for i = arity - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let x = pool.(i) in
          pool.(i) <- pool.(j);
          pool.(j) <- x
        done;
        Array.to_list (Array.sub pool 0 k)
      in
      let got = Fbdt.learn_exhaustive ~support oracle in
      let want = reference_table vec_box ~output ~arity follows support in
      check (ctx ^ ": table and ratio") true (got = want);
      check_int (ctx ^ ": queries") (Box.queries_used vec_box)
        (Box.queries_used word_box);
      check (ctx ^ ": attribution") true
        (Box.queries_by_span vec_box = Box.queries_by_span word_box);
      check_int (ctx ^ ": latency weight")
        (Histogram.count (Box.query_latency vec_box))
        (Histogram.count (Box.query_latency word_box))
    done;
    check (Printf.sprintf "trial %d: retries" trial) true
      (Box.retries_used vec_box = Box.retries_used word_box
      && Box.faults_seen vec_box = Box.faults_seen word_box);
    if faulty then begin
      check (Printf.sprintf "trial %d: faults met" trial) true
        (Box.retries_used word_box > 0);
      corrupted := !corrupted + List.assoc "corrupt" (Box.faults_seen word_box)
    end
  done;
  check "corrupted answers met" true (!corrupted > 0)

(* a strict shard refuses a whole table that would overrun its slice *)
let test_exhaustive_strict_refusal () =
  let box =
    Box.of_function ~input_names:(Array.init 8 (Printf.sprintf "i%d"))
      ~output_names:[| "o" |]
      (fun a -> Bv.of_int ~width:1 (Bv.popcount a land 1))
  in
  let shard = Box.shard ~budget:255 ~strict:true box in
  let oracle = Oracle.of_box ~arity:8 shard ~output:0 in
  check "refused" true
    (try
       ignore (Fbdt.learn_exhaustive ~support:(List.init 8 Fun.id) oracle);
       false
     with Box.Exhausted { used = 0; budget = 255 } -> true);
  check_int "nothing charged" 0 (Box.queries_used shard);
  ignore (Fbdt.learn_exhaustive ~support:(List.init 7 Fun.id) oracle);
  check_int "a table inside the slice is charged" 128 (Box.queries_used shard)

let tests =
  [
    Alcotest.test_case "sample_node == vector reference" `Quick
      test_sample_node_matches_reference;
    Alcotest.test_case "explicit tree structure" `Quick test_tree_structure;
    Alcotest.test_case "tree dot export" `Quick test_tree_dot;
    Alcotest.test_case "learn AND" `Quick test_learn_and;
    Alcotest.test_case "learn majority" `Quick test_learn_majority;
    Alcotest.test_case "learn parity (full depth)" `Quick test_learn_xor_deep;
    Alcotest.test_case "root truth ratio" `Quick test_truth_ratio_sampled;
    Alcotest.test_case "under-approximated support" `Quick test_support_restriction;
    Alcotest.test_case "constant functions" `Quick test_constant_functions;
    Alcotest.test_case "exhaustive conquest" `Quick test_exhaustive;
    Alcotest.test_case "exhaustive width guard" `Quick
      test_exhaustive_rejects_wide_support;
    Alcotest.test_case "exhaustive blocks == vector reference" `Quick
      test_exhaustive_blocks_match_reference;
    Alcotest.test_case "exhaustive table on a strict shard" `Quick
      test_exhaustive_strict_refusal;
    Alcotest.test_case "budget approximation" `Quick test_budget_approximation;
    Alcotest.test_case "early stopping" `Quick test_early_stopping_epsilon;
    QCheck_alcotest.to_alcotest prop_exhaustive_exact;
    QCheck_alcotest.to_alcotest prop_tree_exact_when_complete;
  ]
