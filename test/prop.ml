(* Property-based testing over random circuits, covers and vectors.

   A small hand-rolled qcheck-lite: generators are sized (instances grow
   as a run progresses, so early failures are small to begin with) and
   every arbitrary carries a shrinker — on a falsified property the
   harness greedily walks shrink candidates until none fails, then
   reports the local minimum. No dependency beyond Alcotest for
   reporting.

   The properties pin down the three data paths the parallel learner
   leans on hardest: AIG optimization preserves function, the exchange
   formats round-trip, and the three evaluators (cover, BDD, netlist)
   agree on random assignments. *)

module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover
module N = Lr_netlist.Netlist
module B = Lr_netlist.Builder
module Blif = Lr_netlist.Blif
module Io = Lr_netlist.Io
module Aig = Lr_aig.Aig
module Opt = Lr_aig.Opt
module Aiger = Lr_aig.Aiger
module Bdd = Lr_bdd.Bdd
module Box = Lr_blackbox.Blackbox
module F = Lr_faults.Faults
module Lint = Lr_check.Lint
module Finding = Lr_check.Finding
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner
module Sweep = Lr_dataflow.Sweep
module Equiv = Lr_aig.Equiv
module Fp = Lr_serve.Fingerprint
module Scache = Lr_serve.Cache
module Soa = Lr_kernel.Soa
module Incr = Lr_kernel.Incremental
module Ksim = Lr_aig.Ksim
module Instr = Lr_instr.Instr
module Eval = Lr_eval.Eval

(* ---------------- the harness ---------------- *)

type 'a arb = {
  gen : Rng.t -> int -> 'a;  (** size-driven generator *)
  shrink : 'a -> 'a list;  (** smaller candidates, most aggressive first *)
  print : 'a -> string;
}

(* Greedy shrink: take the first failing candidate, repeat from there.
   Terminates because every shrinker strictly decreases its measure. *)
let rec minimize shrink fails x =
  match List.find_opt fails (shrink x) with
  | Some y -> minimize shrink fails y
  | None -> x

let check_prop ?(count = 60) name arb prop =
  let rng = Rng.create (Hashtbl.hash name) in
  for i = 1 to count do
    (* sizes ramp from 1 to ~24 over the run *)
    let size = 1 + (i * 24 / count) in
    let x = arb.gen rng size in
    let fails x = not (try prop x with _ -> false) in
    if fails x then begin
      let m = minimize arb.shrink fails x in
      Alcotest.failf "%s falsified (attempt %d, size %d), minimized to:\n%s"
        name i size (arb.print m)
    end
  done

(* drop element [i] of a list *)
let drop_nth l i = List.filteri (fun j _ -> j <> i) l

let shrink_list shrink_elt l =
  let n = List.length l in
  (* halving first (fast progress), then element drops, then in-place
     element shrinks *)
  (if n > 1 then [ List.filteri (fun i _ -> i < n / 2) l ] else [])
  @ List.init n (fun i -> drop_nth l i)
  @ List.concat
      (List.mapi
         (fun i x ->
           List.map (fun y -> List.mapi (fun j z -> if i = j then y else z) l)
             (shrink_elt x))
         l)

(* ---------------- vectors ---------------- *)

let arb_bv n =
  {
    gen = (fun rng _ -> Bv.random rng n);
    shrink =
      (fun v ->
        (* clear one set bit at a time: minimum is all-zero *)
        List.filter_map
          (fun i ->
            if Bv.get v i then begin
              let w = Bv.copy v in
              Bv.set w i false;
              Some w
            end
            else None)
          (List.init n Fun.id));
    print = Bv.to_string;
  }

(* ---------------- covers ---------------- *)

let gen_cube rng n =
  let lits = ref [] in
  for v = 0 to n - 1 do
    (* ~2 literals per cube on average keeps cubes satisfiable and wide *)
    if Rng.int rng n < 2 then lits := (v, Rng.bool rng) :: !lits
  done;
  Cube.of_literals n !lits

(* remove one literal at a time: minimum is the universal cube *)
let shrink_cube c =
  List.map (fun (v, _) -> Cube.remove c v) (Cube.literals c)

let arb_cover n =
  {
    gen =
      (fun rng size ->
        let cubes = List.init (1 + Rng.int rng (1 + size)) (fun _ -> gen_cube rng n) in
        Cover.of_cubes n cubes);
    shrink =
      (fun cover ->
        List.map (Cover.of_cubes n) (shrink_list shrink_cube (Cover.cubes cover)));
    print = Cover.to_pla;
  }

(* ---------------- AIGs, from a recipe ---------------- *)

(* An AIG is generated from a pure-data recipe — a list of (kind, a, b)
   rows, each adding one gate over the literals available so far — so
   shrinking is just list surgery on the recipe and rebuilding. *)
type recipe = { ni : int; no : int; ops : (int * int * int) list }

let build_aig { ni; no; ops } =
  let aig = Aig.create ~num_inputs:ni ~num_outputs:no in
  let lits = ref (Array.to_list (Array.init ni (Aig.input_lit aig))) in
  let nlits = ref ni in
  let pick k =
    let l = List.nth !lits (k mod !nlits) in
    if k land 1 = 0 then l else Aig.not_lit l
  in
  List.iter
    (fun (kind, a, b) ->
      let f =
        match kind mod 3 with
        | 0 -> Aig.and_lit
        | 1 -> Aig.or_lit
        | _ -> Aig.xor_lit
      in
      let l = f aig (pick a) (pick b) in
      lits := l :: !lits;
      incr nlits)
    ops;
  for o = 0 to no - 1 do
    Aig.set_output aig o (pick (o * 7 + 3))
  done;
  aig

let arb_recipe =
  {
    gen =
      (fun rng size ->
        let ni = 2 + Rng.int rng 6 and no = 1 + Rng.int rng 4 in
        let ops =
          List.init (Rng.int rng (2 * size + 2)) (fun _ ->
              (Rng.int rng 3, Rng.int rng 1000, Rng.int rng 1000))
        in
        { ni; no; ops })
    (* shrink only the gate list; arities stay, keeping outputs valid *);
    shrink =
      (fun r -> List.map (fun ops -> { r with ops }) (shrink_list (fun _ -> []) r.ops));
    print =
      (fun r ->
        Printf.sprintf "recipe ni=%d no=%d ops=[%s]" r.ni r.no
          (String.concat "; "
             (List.map (fun (k, a, b) -> Printf.sprintf "%d,%d,%d" k a b) r.ops)));
  }

(* the same recipe as a netlist, for the BLIF/native round-trips *)
let build_netlist r =
  let aig = build_aig r in
  Aig.to_netlist
    ~input_names:(Array.init r.ni (Printf.sprintf "i%d"))
    ~output_names:(Array.init r.no (Printf.sprintf "o%d"))
    aig

(* random 64-assignment word patterns for AIG simulation *)
let words rng ni = Array.init ni (fun _ -> Rng.bits64 rng)

(* ---------------- properties ---------------- *)

let prop_compress_preserves () =
  check_prop "Opt.compress preserves function" arb_recipe (fun r ->
      let aig = build_aig r in
      let rng = Rng.create 7 in
      let optimized = Opt.compress ~max_rounds:2 ~fraig_words:4 ~rng aig in
      Aig.num_ands optimized <= Aig.num_ands aig
      && List.for_all
           (fun _ ->
             let w = words rng r.ni in
             Aig.simulate aig w = Aig.simulate optimized w)
           [ (); (); () ])

let prop_sweep_preserves () =
  check_prop "Sweep.run preserves function and never grows" arb_recipe
    (fun r ->
      let n = build_netlist r in
      let swept, st = Sweep.run ~rng:(Rng.create 13) n in
      N.size swept <= N.size n
      && Sweep.removed st = N.size n - N.size swept
      &&
      let rng = Rng.create 29 in
      List.for_all
        (fun _ ->
          let a = Bv.random rng r.ni in
          Bv.equal (N.eval n a) (N.eval swept a))
        (List.init 16 Fun.id))

let prop_blif_roundtrip () =
  check_prop "BLIF write/read round-trip" arb_recipe (fun r ->
      let n = build_netlist r in
      let n' = Blif.read (Blif.write n) in
      N.input_names n = N.input_names n'
      && N.output_names n = N.output_names n'
      &&
      let rng = Rng.create 11 in
      List.for_all
        (fun _ ->
          let a = Bv.random rng r.ni in
          Bv.equal (N.eval n a) (N.eval n' a))
        (List.init 16 Fun.id))

let prop_native_roundtrip () =
  check_prop "native format write/read round-trip" arb_recipe (fun r ->
      let n = build_netlist r in
      let n' = Io.read (Io.write n) in
      N.input_names n = N.input_names n'
      && N.output_names n = N.output_names n'
      && N.size n = N.size n'
      &&
      let rng = Rng.create 13 in
      List.for_all
        (fun _ ->
          let a = Bv.random rng r.ni in
          Bv.equal (N.eval n a) (N.eval n' a))
        (List.init 16 Fun.id))

let prop_aiger_roundtrip () =
  check_prop "AIGER write/read round-trip (structural)" arb_recipe (fun r ->
      let aig = Aig.compact (build_aig r) in
      let aig' = Aiger.read (Aiger.write aig) in
      Aig.num_inputs aig = Aig.num_inputs aig'
      && Aig.num_outputs aig = Aig.num_outputs aig'
      && Aig.num_ands aig = Aig.num_ands aig'
      &&
      let rng = Rng.create 17 in
      List.for_all
        (fun _ ->
          let w = words rng r.ni in
          Aig.simulate aig w = Aig.simulate aig' w)
        (List.init 4 Fun.id))

(* one random-cover property over three evaluators: the cover itself,
   its BDD, and the SOP netlist the learner would synthesise from it *)
let prop_evaluators_agree () =
  let n = 8 in
  check_prop "cover/BDD/netlist evaluation agreement" (arb_cover n)
    (fun cover ->
      let man = Bdd.man ~nvars:n in
      let node = Bdd.of_cover man cover in
      let circuit =
        N.create
          ~input_names:(Array.init n (Printf.sprintf "x%d"))
          ~output_names:[| "f" |]
      in
      let vars = Array.init n (N.input circuit) in
      N.set_output circuit 0 (B.sop circuit vars cover);
      let rng = Rng.create 23 in
      List.for_all
        (fun _ ->
          let a = Bv.random rng n in
          let want = Cover.eval cover a in
          Bdd.eval man node a = want
          && Bv.get (N.eval circuit a) 0 = want)
        (List.init 32 Fun.id))

(* ---------------- SoA kernel differentials ---------------- *)

(* the compiled kernel against the tree-walking reference, over random
   recipes x random pattern blocks: every entry point the learner routes
   through [Lr_kernel.Soa] must be bit-identical to the legacy
   evaluator it replaced *)
let prop_soa_netlist_identical () =
  check_prop "Soa.of_netlist == Netlist evaluators" arb_recipe (fun r ->
      let c = build_netlist r in
      let s = Soa.of_netlist c in
      let rng = Rng.create 41 in
      List.for_all
        (fun _ ->
          let w = words rng r.ni in
          N.eval_words c w = Soa.eval_words s w)
        (List.init 4 Fun.id)
      &&
      (* eval_many over a pattern count that is not a multiple of 64, so
         the wide-block path exercises a ragged final block *)
      let np = 1 + Rng.int rng 130 in
      let patterns = Array.init np (fun _ -> Bv.random rng r.ni) in
      let reference = N.eval_many c patterns in
      let kernel = Soa.eval_many s patterns in
      Array.length reference = Array.length kernel
      && Array.for_all2 Bv.equal reference kernel)

let prop_soa_aig_identical () =
  check_prop "Ksim.soa_of_aig == Aig.simulate" arb_recipe (fun r ->
      let aig = build_aig r in
      let s = Ksim.soa_of_aig aig in
      let rng = Rng.create 43 in
      List.for_all
        (fun _ ->
          let w = words rng r.ni in
          let vals = Soa.node_values s w in
          vals = Aig.simulate_nodes aig w
          && Soa.outputs_of_values s vals = Aig.simulate aig w)
        (List.init 4 Fun.id))

(* the multi-block entry against one [eval_words] call per block, on
   block counts around [max_width], where the passes split *)
let prop_eval_blocks_matches_words () =
  check_prop "Soa.eval_blocks == eval_words per block" arb_recipe (fun r ->
      let s = Soa.of_netlist (build_netlist r) in
      let rng = Rng.create 59 in
      let w = Soa.max_width in
      List.for_all
        (fun k ->
          let blocks = Array.init k (fun _ -> words rng r.ni) in
          let expected = Array.map (Soa.eval_words s) blocks in
          let before = Instr.counter_total "sim.gate-words" in
          let got = Soa.eval_blocks s blocks in
          got = expected
          && Instr.counter_total "sim.gate-words" - before
             = k * Soa.num_nodes s)
        [ 0; 1; w - 1; w; w + 1; (2 * w) + 1 ])

(* ---------------- scoring ---------------- *)

(* The per-pattern scorer [Eval] replaced: every pattern's output vector
   built by [eval_many] and compared whole with [Bv.equal]. *)
let reference_accuracy ~patterns ~golden ~candidate =
  Instr.span ~name:"eval.accuracy" @@ fun () ->
  Instr.count "eval.patterns" (Array.length patterns);
  let want = N.eval_many golden patterns in
  let got = N.eval_many candidate patterns in
  let hits = ref 0 in
  Array.iteri (fun i w -> if Bv.equal w got.(i) then incr hits) want;
  Float.of_int !hits /. Float.of_int (max 1 (Array.length patterns))

let reference_per_output ~patterns ~golden ~candidate =
  let want = N.eval_many golden patterns in
  let got = N.eval_many candidate patterns in
  Array.init (N.num_outputs golden) (fun o ->
      let hits = ref 0 in
      Array.iteri (fun i w -> if Bv.get w o = Bv.get got.(i) o then incr hits) want;
      Float.of_int !hits /. Float.of_int (max 1 (Array.length patterns)))

(* [f ()] and the totals of the scoring counters it ticked *)
let with_scoring_counts f =
  let totals = Hashtbl.create 4 in
  Instr.set_sinks
    [
      {
        Instr.emit =
          (function
          | Instr.Count { name; incr; _ } ->
              Hashtbl.replace totals name
                (incr + Option.value ~default:0 (Hashtbl.find_opt totals name))
          | _ -> ());
        flush = (fun () -> ());
      };
    ];
  Fun.protect ~finally:(fun () -> Instr.set_sinks []) @@ fun () ->
  let r = f () in
  ( r,
    List.map
      (fun name -> Option.value ~default:0 (Hashtbl.find_opt totals name))
      [ "eval.patterns"; "sim.patterns"; "sim.gate-words" ] )

(* a golden recipe and a candidate of the same shape whose gate list
   keeps a random prefix of the golden one, so hit rates span 0 to 1 *)
let arb_scoring_pair =
  {
    gen =
      (fun rng size ->
        let golden = arb_recipe.gen rng size in
        let keep = Rng.int rng (List.length golden.ops + 1) in
        let tail = (arb_recipe.gen rng size).ops in
        (golden, List.filteri (fun i _ -> i < keep) golden.ops @ tail));
    shrink =
      (fun (g, ops) -> List.map (fun g -> (g, ops)) (arb_recipe.shrink g));
    print =
      (fun (g, ops) ->
        Printf.sprintf "golden %s / candidate %s" (arb_recipe.print g)
          (arb_recipe.print { g with ops }));
  }

let prop_word_scoring_matches_reference () =
  check_prop ~count:30 "word-native Eval == per-pattern scorer"
    arb_scoring_pair (fun (g, ops) ->
      let golden = build_netlist g and candidate = build_netlist { g with ops } in
      let rng = Rng.create (List.length ops) in
      List.for_all
        (fun np ->
          let patterns = Eval.mixture ~rng ~num_inputs:g.ni ~count:np in
          with_scoring_counts (fun () ->
              Eval.accuracy_on ~patterns ~golden ~candidate ())
          = with_scoring_counts (fun () ->
                reference_accuracy ~patterns ~golden ~candidate)
          && with_scoring_counts (fun () ->
                 Eval.per_output_accuracy ~patterns ~golden ~candidate ())
             = with_scoring_counts (fun () ->
                   reference_per_output ~patterns ~golden ~candidate))
        [ 0; 1; 63; 64; 65; 1000 ])

(* a full reference simulation with one node pinned, in schedule order —
   the semantics [Incremental.with_forced] promises to match *)
let forced_reference s wordsv node w =
  let vals = Array.make (max 1 (Soa.num_nodes s)) 0L in
  Array.iter
    (fun n ->
      vals.(n) <- (if n = node then w else Soa.eval_node s vals wordsv n))
    (Soa.schedule s);
  vals

let prop_incremental_matches_full () =
  check_prop "incremental resim == full resim" arb_recipe (fun r ->
      let c = build_netlist r in
      let s = Soa.of_netlist c in
      let e = Incr.create s in
      let rng = Rng.create 47 in
      let cur = words rng r.ni in
      Incr.load e cur;
      List.for_all
        (fun _ ->
          (* perturb one input word, then check the dirty-cone resim
             against a from-scratch simulation of the new words *)
          let i = Rng.int rng r.ni in
          cur.(i) <- Rng.bits64 rng;
          Incr.set_input e i cur.(i);
          let full = Soa.node_values s cur in
          Incr.values e = full
          && Incr.outputs e = Soa.outputs_of_values s full)
        (List.init 6 Fun.id)
      &&
      (* a hypothetical probe sees exactly the patched simulation, and
         every touched value is restored on the way out *)
      let before = Array.copy (Incr.values e) in
      let node = Rng.int rng (Soa.num_nodes s) in
      let w = Rng.bits64 rng in
      Incr.with_forced e ~node w (fun e ->
          Incr.values e = forced_reference s cur node w)
      && Incr.values e = before)

(* the shapes random recipes never produce: no inputs, no gates *)
let test_kernel_degenerate () =
  let check_words = Alcotest.(check (array int64)) in
  (* zero-input netlist: constant outputs only *)
  let c0 = N.create ~input_names:[||] ~output_names:[| "t"; "f" |] in
  N.set_output c0 0 (N.const_true c0);
  (* output 1 keeps its initial constant-false *)
  let s0 = Soa.of_netlist c0 in
  check_words "0-input eval_words" (N.eval_words c0 [||])
    (Soa.eval_words s0 [||]);
  let e0 = Incr.create s0 in
  Incr.load e0 [||];
  check_words "0-input incremental outputs" (N.eval_words c0 [||])
    (Incr.outputs e0);
  (* zero-gate netlist: an input wired straight to the output *)
  let c1 = N.create ~input_names:[| "a"; "b" |] ~output_names:[| "y" |] in
  N.set_output c1 0 (N.input c1 1);
  let s1 = Soa.of_netlist c1 in
  let rng = Rng.create 53 in
  let w = words rng 2 in
  check_words "0-gate eval_words" (N.eval_words c1 w) (Soa.eval_words s1 w);
  let e1 = Incr.create s1 in
  Incr.load e1 w;
  w.(1) <- Rng.bits64 rng;
  Incr.set_input e1 1 w.(1);
  check_words "0-gate incremental outputs" (N.eval_words c1 w)
    (Incr.outputs e1);
  (* zero-and AIG: inverter-only and a constant output *)
  let aig = Aig.create ~num_inputs:1 ~num_outputs:2 in
  Aig.set_output aig 0 (Aig.not_lit (Aig.input_lit aig 0));
  let sa = Ksim.soa_of_aig aig in
  let wa = words rng 1 in
  check_words "0-and AIG outputs" (Aig.simulate aig wa)
    (Soa.outputs_of_values sa (Soa.node_values sa wa));
  (* zero-input AIG *)
  let aigc = Aig.create ~num_inputs:0 ~num_outputs:1 in
  let sc = Ksim.soa_of_aig aigc in
  check_words "0-input AIG outputs" (Aig.simulate aigc [||])
    (Soa.outputs_of_values sc (Soa.node_values sc [||]));
  (* the zero-input netlist learned with every self-check on: each
     conquered table is re-simulated on zero input words *)
  let r =
    Learner.learn
      ~config:{ Config.default with Config.check_level = Config.Full }
      (Box.of_netlist c0)
  in
  check_words "0-input learned outputs" (N.eval_words c0 [||])
    (N.eval_words r.Learner.circuit [||]);
  Alcotest.(check int) "0-input checks verified" 7 r.Learner.checks_verified

(* ---------------- fault injection ---------------- *)

(* a recipe paired with a transient-only fault schedule; shrinking works
   on the recipe (the schedule is already minimal in structure) *)
let arb_faulted_recipe =
  {
    gen =
      (fun rng size ->
        let spec =
          {
            F.none with
            F.seed = 1 + Rng.int rng 10_000;
            fail_p = 0.05 +. (float_of_int (Rng.int rng 25) /. 100.0);
            fail_burst = 1 + Rng.int rng 3;
            latency_p = 0.1;
            latency_s = 0.001;
          }
        in
        (arb_recipe.gen rng size, spec));
    shrink =
      (fun (r, spec) ->
        List.map (fun r -> (r, spec)) (arb_recipe.shrink r));
    print =
      (fun (r, spec) ->
        Printf.sprintf "%s under %s" (arb_recipe.print r) (F.to_string spec));
  }

let tiny_learn ?faults ?(retry = F.no_retry) r =
  let box = Box.of_netlist ~budget:30_000 (build_netlist r) in
  Learner.learn
    ~config:
      {
        Config.default with
        Config.support_rounds = 64;
        node_rounds = 16;
        max_tree_nodes = 128;
        optimize_rounds = 1;
        fraig_words = 4;
        template_samples = 16;
        retry;
        faults;
      }
    box

(* transient faults outlasted by retries change nothing: not the
   netlist, not the query count — the learner cannot tell it was
   attacked (retries >= burst+1 attempts guarantees every burst is
   outlasted) *)
let prop_transient_faults_transparent () =
  check_prop ~count:8 "transient faults + retries are transparent"
    arb_faulted_recipe (fun (r, spec) ->
      let clean = tiny_learn r in
      let faulted = tiny_learn ~faults:spec ~retry:(F.retry 8) r in
      Io.write clean.Learner.circuit = Io.write faulted.Learner.circuit
      && clean.Learner.queries = faulted.Learner.queries
      && faulted.Learner.degraded = 0)

(* a hard fault schedule degrades every output, yet the emitted netlist
   is still well-formed: the lint finds no error-severity problems *)
let prop_degraded_netlist_lints () =
  check_prop ~count:8 "degraded runs emit lint-clean netlists"
    arb_faulted_recipe (fun (r, spec) ->
      let hard = { spec with F.fail_p = 1.0; fail_burst = 0 } in
      let report = tiny_learn ~faults:hard r in
      report.Learner.degraded = List.length report.Learner.outputs
      && Finding.errors (Lint.netlist report.Learner.circuit) = [])

(* ---------------- word-parallel queries ---------------- *)

(* [Box.query_words] against [Box.query_many] on the same batches: a
   random recipe behind a netlist or a function box, a lane count, and a
   fault schedule mixing transient failures under a retry policy,
   corruption whose window opens mid-word, and premature exhaustion *)
type word_case = {
  wr : recipe;
  count : int;
  batches : int;
  function_box : bool;
  wfaults : (F.spec * int) option;  (** schedule, retry attempts *)
}

let arb_word_case =
  {
    gen =
      (fun rng size ->
        let wr = arb_recipe.gen rng size in
        let count = 1 + Rng.int rng 64 and batches = 1 + Rng.int rng 4 in
        let wfaults =
          if Rng.int rng 3 = 0 then None
          else
            let corruption =
              match Rng.int rng 3 with
              | 0 -> None
              | 1 -> Some F.Flip
              | _ -> Some (F.Stuck_at (Rng.bool rng))
            in
            let spec =
              {
                F.none with
                F.seed = 1 + Rng.int rng 10_000;
                fail_p = float_of_int (Rng.int rng 4) /. 10.0;
                fail_burst = Rng.int rng 3;
                corruption;
                (* one past the last output now and then: a no-op victim *)
                victim = Rng.int rng (wr.no + 1);
                onset = Rng.int rng (count * batches);
                duration =
                  (if Rng.bool rng then max_int else 1 + Rng.int rng 80);
                exhaust_after =
                  (if Rng.bool rng then Some (Rng.int rng (count * batches))
                   else None);
              }
            in
            Some (spec, 1 + Rng.int rng 4)
        in
        { wr; count; batches; function_box = Rng.bool rng; wfaults });
    shrink =
      (fun c -> List.map (fun wr -> { c with wr }) (arb_recipe.shrink c.wr));
    print =
      (fun c ->
        Printf.sprintf "%s count=%d batches=%d function=%b faults=%s"
          (arb_recipe.print c.wr) c.count c.batches c.function_box
          (match c.wfaults with
          | None -> "none"
          | Some (spec, retry) ->
              Printf.sprintf "%s retry=%d" (F.to_string spec) retry));
  }

let prop_query_words_matches_many () =
  check_prop ~count:120 "Box.query_words == Box.query_many" arb_word_case
    (fun c ->
      let n = build_netlist c.wr in
      let box () =
        let b =
          if c.function_box then
            Box.of_function ~input_names:(N.input_names n)
              ~output_names:(N.output_names n) (N.eval n)
          else Box.of_netlist n
        in
        (match c.wfaults with
        | None -> ()
        | Some (spec, retry) ->
            Box.set_faults b (Some spec);
            Box.set_retry b (F.retry ~backoff_s:0.0 retry));
        b
      in
      let by_many = box () and by_words = box () in
      let rng = Rng.create (c.count * 31 + c.batches) in
      let answers =
        List.init c.batches (fun b ->
            let patterns = Array.init c.count (fun _ -> Bv.random rng c.wr.ni) in
            (* the lanes past [count] carry noise the box must ignore *)
            let words =
              Array.map
                (fun w ->
                  if c.count = 64 then w
                  else
                    Int64.logor w
                      (Int64.shift_left (Rng.bits64 rng) c.count))
                (Bv.to_lanes c.wr.ni patterns)
            in
            let span = if b mod 2 = 0 then "even" else "odd" in
            let attempt f =
              try Ok (Lr_instr.Instr.span ~name:span f)
              with F.Query_failed _ -> Error ()
            in
            ( attempt (fun () ->
                  Bv.to_lanes c.wr.no (Box.query_many by_many patterns)),
              attempt (fun () -> Box.query_words by_words ~count:c.count words)
            ))
      in
      List.for_all (fun (a, b) -> a = b) answers
      && Box.queries_used by_many = Box.queries_used by_words
      && Box.queries_by_span by_many = Box.queries_by_span by_words
      && Box.retries_used by_many = Box.retries_used by_words
      && Box.faults_seen by_many = Box.faults_seen by_words
      && Box.exhausted by_many = Box.exhausted by_words)

(* ---------------- the serving plane ---------------- *)

let equivalent a b =
  match Equiv.check a b with
  | Equiv.Equivalent -> true
  | Equiv.Counterexample _ -> false

(* Insert a random circuit into the cache under its own behavioural key
   and look it back up: the verified hit must decode to a CEC-equivalent
   circuit (bit-identical, in fact — but equivalence is the safety
   property a collision could have broken). *)
let prop_cache_roundtrip () =
  check_prop ~count:20 "cache round-trip is CEC-equivalent" arb_recipe
    (fun r ->
      let n = build_netlist r in
      let box = Box.of_netlist n in
      let cache = Scache.create () in
      let key =
        Scache.key
          ~fingerprint:(Fp.probe box)
          ~names_sig:(Fp.names_signature box)
          ~config_sig:"prop"
      in
      Scache.insert cache ~key ~circuit:n ~report:Lr_instr.Json.Null;
      match Scache.lookup cache ~key ~verify:(fun c -> equivalent c n) with
      | None -> false
      | Some e ->
          Io.write n = e.Scache.circuit_text
          && equivalent (Io.read e.Scache.circuit_text) n)

(* Functionally equal, structurally different implementations must
   fingerprint identically: the content address hashes behaviour, not
   shape. Sweep and compress both rewrite the structure while provably
   preserving the function (properties above). *)
let prop_fingerprint_behavioural () =
  check_prop ~count:20 "equal functions fingerprint identically" arb_recipe
    (fun r ->
      let n = build_netlist r in
      let swept, _ = Sweep.run ~rng:(Rng.create 13) n in
      let compressed =
        let rng = Rng.create 7 in
        Aig.to_netlist
          ~input_names:(N.input_names n)
          ~output_names:(N.output_names n)
          (Opt.compress ~max_rounds:2 ~fraig_words:4 ~rng (build_aig r))
      in
      let f = Fp.probe (Box.of_netlist n) in
      Fp.equal f (Fp.probe (Box.of_netlist swept))
      && Fp.equal f (Fp.probe (Box.of_netlist compressed)))

(* the harness must actually shrink: a seeded failing property ends at a
   local minimum, here the empty gate list *)
let test_shrinking_works () =
  let minimal = ref None in
  (try
     check_prop ~count:5 "always-false canary" arb_recipe (fun r ->
         minimal := Some r;
         false)
   with _ -> ());
  match !minimal with
  | Some r -> Alcotest.(check int) "shrunk to no gates" 0 (List.length r.ops)
  | None -> Alcotest.fail "property was never exercised"

let tests =
  [
    Alcotest.test_case "Opt.compress preserves function" `Quick
      prop_compress_preserves;
    Alcotest.test_case "Sweep.run preserves function" `Quick
      prop_sweep_preserves;
    Alcotest.test_case "BLIF round-trip" `Quick prop_blif_roundtrip;
    Alcotest.test_case "native round-trip" `Quick prop_native_roundtrip;
    Alcotest.test_case "AIGER round-trip" `Quick prop_aiger_roundtrip;
    Alcotest.test_case "evaluator agreement" `Quick prop_evaluators_agree;
    Alcotest.test_case "SoA kernel == netlist evaluators" `Quick
      prop_soa_netlist_identical;
    Alcotest.test_case "SoA kernel == AIG simulation" `Quick
      prop_soa_aig_identical;
    Alcotest.test_case "eval_blocks == eval_words per block" `Quick
      prop_eval_blocks_matches_words;
    Alcotest.test_case "word-native scoring == per-pattern scorer" `Quick
      prop_word_scoring_matches_reference;
    Alcotest.test_case "incremental resim == full resim" `Quick
      prop_incremental_matches_full;
    Alcotest.test_case "kernel degenerate shapes" `Quick
      test_kernel_degenerate;
    Alcotest.test_case "transient fault transparency" `Quick
      prop_transient_faults_transparent;
    Alcotest.test_case "degraded netlists lint clean" `Quick
      prop_degraded_netlist_lints;
    Alcotest.test_case "query_words == query_many" `Quick
      prop_query_words_matches_many;
    Alcotest.test_case "circuit cache round-trip" `Quick prop_cache_roundtrip;
    Alcotest.test_case "fingerprints hash behaviour, not structure" `Quick
      prop_fingerprint_behavioural;
    Alcotest.test_case "shrinking reaches a minimum" `Quick
      test_shrinking_works;
  ]
