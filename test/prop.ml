(* Property-based testing over random circuits, covers and vectors.

   A small hand-rolled qcheck-lite: generators are sized (instances grow
   as a run progresses, so early failures are small to begin with) and
   every arbitrary carries a shrinker — on a falsified property the
   harness greedily walks shrink candidates until none fails, then
   reports the local minimum. No dependency beyond Alcotest for
   reporting.

   The properties pin down the three data paths the parallel learner
   leans on hardest: AIG optimization preserves function, the exchange
   formats round-trip (and the AIGER reader refuses mutated text with a
   located error), and the three evaluators (cover, BDD, netlist) agree
   on random assignments. *)

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
module Rebuild = Lr_dataflow.Rebuild
module Equiv = Lr_aig.Equiv
module Fp = Lr_serve.Fingerprint
module Scache = Lr_serve.Cache
module Proto = Lr_serve.Proto
module Http = Lr_serve.Http
module Json = Lr_instr.Json
module Soa = Lr_kernel.Soa
module Ksim = Lr_aig.Ksim
module Sat = Lr_sat.Sat
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
  (* kinds 3 and 4 rebuild [l] by Shannon expansion on [m]: a new node
     the strash cannot merge, functionally [l] *)
  let shannon aig l m =
    Aig.or_lit aig (Aig.and_lit aig l m) (Aig.and_lit aig l (Aig.not_lit m))
  in
  let shannon_dual aig l m =
    Aig.and_lit aig (Aig.or_lit aig l m) (Aig.or_lit aig l (Aig.not_lit m))
  in
  List.iter
    (fun (kind, a, b) ->
      let f =
        match kind with
        | 0 -> Aig.and_lit
        | 1 -> Aig.or_lit
        | 2 -> Aig.xor_lit
        | 3 -> shannon
        | _ -> shannon_dual
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

(* Reader fuzzing: [Aiger.write] text under a list of edits. An edit
   (kind, l, t, v) replaces with value [v] (0) or drops (1) token [t] of
   the header (even [l]) or of line [l], swaps the tokens at places [l]
   and [t] (2), truncates the text at byte [l] (3), or duplicates (4) or
   drops (5) line [l]. A value is an extreme count (even [v]) or another
   token of the text. *)
let mutate_aiger text (kind, l, t, v) =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let nl = Array.length lines in
  let tokens =
    Array.map (fun l -> Array.of_list (String.split_on_char ' ' l)) lines
  in
  let places =
    Array.concat
      (Array.to_list
         (Array.mapi (fun li t -> Array.mapi (fun k _ -> (li, k)) t) tokens))
  in
  let place n = places.(n mod Array.length places) in
  let joined () =
    String.concat "\n"
      (Array.to_list
         (Array.map (fun t -> String.concat " " (Array.to_list t)) tokens))
  in
  let li = if l land 1 = 0 then 0 else l mod nl in
  let k = t mod Array.length tokens.(li) in
  let extremes =
    [| "-1"; "0"; "1"; "1000000000"; string_of_int max_int; "x" |]
  in
  let with_line f =
    String.concat "\n"
      (List.concat
         (List.mapi
            (fun j line -> if j = l mod nl then f line else [ line ])
            (Array.to_list lines)))
  in
  match kind with
  | 0 ->
      tokens.(li).(k) <-
        (if v land 1 = 0 then extremes.(v / 2 mod Array.length extremes)
         else
           let lj, kj = place (v / 2) in
           tokens.(lj).(kj));
      joined ()
  | 1 ->
      tokens.(li) <-
        Array.of_list
          (List.filteri (fun j _ -> j <> k) (Array.to_list tokens.(li)));
      joined ()
  | 2 ->
      let l1, k1 = place l and l2, k2 = place t in
      let x = tokens.(l1).(k1) in
      tokens.(l1).(k1) <- tokens.(l2).(k2);
      tokens.(l2).(k2) <- x;
      joined ()
  | 3 -> String.sub text 0 (l mod (String.length text + 1))
  | 4 -> with_line (fun line -> [ line; line ])
  | _ -> with_line (fun _ -> [])

let arb_aiger_mutant =
  {
    gen =
      (fun rng size ->
        let r = arb_recipe.gen rng size in
        let edit _ =
          let kind = Rng.int rng 6 in
          let l = Rng.int rng 1000 in
          let t = Rng.int rng 1000 in
          (kind, l, t, Rng.int rng 1000)
        in
        (r, List.init (1 + Rng.int rng 3) edit));
    shrink =
      (fun (r, edits) ->
        List.map (fun edits -> (r, edits)) (shrink_list (fun _ -> []) edits)
        @ List.map (fun r -> (r, edits)) (arb_recipe.shrink r));
    print =
      (fun (r, edits) ->
        Printf.sprintf "%s\n%S" (arb_recipe.print r)
          (List.fold_left mutate_aiger (Aiger.write (build_aig r)) edits));
  }

(* every mutant reads as an AIG or is refused with a located Failure:
   no other exception, no allocation sized by a header the text does not
   back. Both outcomes must occur, or the edits are not biting. *)
let prop_aiger_mutants () =
  let read = ref 0 and refused = ref 0 in
  check_prop ~count:4000 "mutated AIGER text reads or fails located"
    arb_aiger_mutant (fun (r, edits) ->
      let text =
        List.fold_left mutate_aiger (Aiger.write (build_aig r)) edits
      in
      match Aiger.read text with
      | _ ->
          incr read;
          true
      | exception Failure msg ->
          incr refused;
          String.starts_with ~prefix:"Aiger.read:" msg);
  Alcotest.(check bool) "some mutants read" true (!read > 0);
  Alcotest.(check bool) "some mutants refused" true (!refused > 0)

(* Reader fuzzing for the two circuit-file readers, [Io] (native) and
   [Blif]. A seed text is a [test/lint_cli] fixture or the [Io.write] or
   [Blif.write] text of a recipe; an edit (kind, l, t, v) replaces token
   [t] of line [l] with value [v] (0), drops (1) or duplicates (2) line
   [l], swaps lines [l] and [t] (3), truncates at byte [l] (4) or swaps
   the tokens at places [l] and [t] (5). A value is an extreme id or
   count, an unknown op or directive (even [v]) or another token of the
   text. *)
let circuit_fixtures =
  lazy
    (let dir =
       (* [dune runtest] runs in the test directory, [dune exec] at the
          root *)
       List.find Sys.file_exists [ "lint_cli"; "test/lint_cli" ]
     in
     Sys.readdir dir |> Array.to_list |> List.sort compare
     |> List.filter (fun f ->
            Filename.check_suffix f ".blif" || Filename.check_suffix f ".aag")
     |> List.map (fun f -> In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

let reader_values =
  [|
    "-1"; "0"; "1"; "2"; "1000000000"; string_of_int max_int;
    "99999999999999999999"; "x"; "MUX"; "NOT"; "="; ".gate"; ".names";
    ".po"; ".inputs"; ".latch"; "-"; "10"; "1-";
  |]

let mutate_reader_text text (kind, l, t, v) =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let nl = Array.length lines in
  let tokens = Array.map (fun l -> Array.of_list (String.split_on_char ' ' l)) lines in
  let places =
    Array.concat
      (Array.to_list
         (Array.mapi (fun li t -> Array.mapi (fun k _ -> (li, k)) t) tokens))
  in
  let place n = places.(n mod Array.length places) in
  let joined tokens =
    String.concat "\n"
      (Array.to_list
         (Array.map (fun t -> String.concat " " (Array.to_list t)) tokens))
  in
  let li = l mod nl in
  match kind with
  | 0 ->
      let k = t mod Array.length tokens.(li) in
      tokens.(li).(k) <-
        (if v land 1 = 0 then reader_values.(v / 2 mod Array.length reader_values)
         else
           let lj, kj = place (v / 2) in
           tokens.(lj).(kj));
      joined tokens
  | 1 -> joined (Array.of_list (List.filteri (fun j _ -> j <> li) (Array.to_list tokens)))
  | 2 ->
      joined
        (Array.of_list
           (List.concat_map
              (fun (j, x) -> if j = li then [ x; x ] else [ x ])
              (List.mapi (fun j x -> (j, x)) (Array.to_list tokens))))
  | 3 ->
      let lj = t mod nl in
      let x = tokens.(li) in
      tokens.(li) <- tokens.(lj);
      tokens.(lj) <- x;
      joined tokens
  | 4 -> String.sub text 0 (l mod (String.length text + 1))
  | _ ->
      let l1, k1 = place l and l2, k2 = place t in
      let x = tokens.(l1).(k1) in
      tokens.(l1).(k1) <- tokens.(l2).(k2);
      tokens.(l2).(k2) <- x;
      joined tokens

(* the seed, by [seed mod 3]: a fixture, or the recipe's native or
   BLIF text *)
let reader_seed r seed =
  let fixtures = Lazy.force circuit_fixtures in
  match seed mod 3 with
  | 0 -> List.nth fixtures (seed / 3 mod List.length fixtures)
  | 1 -> Io.write (build_netlist r)
  | _ -> Blif.write (build_netlist r)

let arb_reader_mutant =
  {
    gen =
      (fun rng size ->
        let r = arb_recipe.gen rng size in
        let seed = Rng.int rng (3 * List.length (Lazy.force circuit_fixtures)) in
        let edit _ =
          (Rng.int rng 6, Rng.int rng 1000, Rng.int rng 1000, Rng.int rng 1000)
        in
        (r, seed, List.init (1 + Rng.int rng 3) edit));
    shrink =
      (fun (r, seed, edits) ->
        List.map (fun edits -> (r, seed, edits)) (shrink_list (fun _ -> []) edits)
        @ List.map (fun r -> (r, seed, edits)) (arb_recipe.shrink r));
    print =
      (fun (r, seed, edits) ->
        Printf.sprintf "%s seed=%d\n%S" (arb_recipe.print r) seed
          (List.fold_left mutate_reader_text (reader_seed r seed) edits));
  }

(* a Failure that names a line, as both readers word theirs *)
let located msg =
  let rec go = function
    | "line" :: n :: _ when n <> "" && n.[0] >= '0' && n.[0] <= '9' -> true
    | _ :: rest -> go rest
    | [] -> false
  in
  go (String.split_on_char ' ' msg)

(* Every mutant reads as a netlist or is refused with a located
   Failure, never another exception; a netlist it reads compiles to the
   kernel (whose observed schedule assumes fanins precede their nodes)
   and simulates as the netlist evaluator does. Each reader must both
   accept and refuse some mutants, or the edits are not biting. *)
let prop_circuit_reader_mutants () =
  let outcomes = Hashtbl.create 4 in
  let tally key =
    Hashtbl.replace outcomes key
      (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes key))
  in
  let rng = Rng.create 61 in
  check_prop ~count:3000 "native and BLIF readers under mutation"
    arb_reader_mutant (fun (r, seed, edits) ->
      let text = List.fold_left mutate_reader_text (reader_seed r seed) edits in
      List.for_all
        (fun (name, read) ->
          match read text with
          | c ->
              tally (name, true);
              let s = Soa.of_netlist c in
              List.for_all
                (fun _ ->
                  let w = words rng (N.num_inputs c) in
                  N.eval_words c w = Soa.eval_words s w
                  && Soa.outputs_of_values s (Soa.node_values s w)
                     = N.eval_words c w)
                (List.init 2 Fun.id)
          | exception Failure msg ->
              tally (name, false);
              located msg)
        [ ("native", Io.read); ("blif", Blif.read) ]);
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s some mutants" (fst key)
           (if snd key then "reads" else "refuses"))
        true (Hashtbl.mem outcomes key))
    [ ("native", true); ("native", false); ("blif", true); ("blif", false) ]

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

(* the nodes the outputs read: what [eval_words], [eval_blocks] and
   [eval_many] simulate, and tick ["sim.gate-words"] by, per block *)
let observed s =
  Array.length
    (Soa.transitive_fanin s (List.init (Soa.num_outputs s) (Soa.output_node s)))

(* [f ()] and how far it moved ["sim.gate-words"] *)
let gate_words f =
  let r, tally = Tally.run f in
  (r, Tally.total tally "sim.gate-words")

(* the compiled kernel against the tree-walking reference, over random
   recipes x random pattern blocks: every entry point the learner routes
   through [Lr_kernel.Soa] must be bit-identical to the legacy
   evaluator it replaced. [build_netlist] does not compact, so recipes
   carry gates no output reads and inputs no gate reads: the observed
   schedule must skip them without changing an answer. [partial] counts
   the recipes where it did, so a generator that stopped producing them
   shows. *)
let prop_soa_netlist_identical () =
  let partial = ref 0 in
  check_prop "Soa.of_netlist == Netlist evaluators" arb_recipe (fun r ->
      let c = build_netlist r in
      let s = Soa.of_netlist c in
      let obs = observed s in
      if obs < Soa.num_nodes s then incr partial;
      let rng = Rng.create 41 in
      Soa.num_observed s = obs
      && List.for_all
           (fun _ ->
             let w = words rng r.ni in
             gate_words (fun () -> Soa.eval_words s w) = (N.eval_words c w, obs))
           (List.init 4 Fun.id)
      &&
      (* eval_many over a pattern count that is not a multiple of 64, so
         the wide-block path exercises a ragged final block *)
      let np = 1 + Rng.int rng 130 in
      let patterns = Array.init np (fun _ -> Bv.random rng r.ni) in
      let reference = N.eval_many c patterns in
      let kernel, ticked = gate_words (fun () -> Soa.eval_many s patterns) in
      Array.length reference = Array.length kernel
      && Array.for_all2 Bv.equal reference kernel
      && ticked = (np + 63) / 64 * obs);
  Alcotest.(check bool) "some recipes carry unobserved nodes" true (!partial > 0)

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

(* the recipe over all six binary netlist gates ([kind] and the parity
   of [b]'s second bit pick one), so the netlist opcodes the AIG import
   never emits reach the encoder too *)
let build_gate_netlist { ni; no; ops } =
  let c =
    N.create
      ~input_names:(Array.init ni (Printf.sprintf "i%d"))
      ~output_names:(Array.init no (Printf.sprintf "o%d"))
  in
  let nodes = ref (List.init ni (N.input c)) in
  let count = ref ni in
  let pick k =
    let x = List.nth !nodes (k mod !count) in
    if k land 1 = 0 then x else N.not_ c x
  in
  let gates = [| N.and_; N.or_; N.xor_; N.nand_; N.nor_; N.xnor_ |] in
  List.iter
    (fun (kind, a, b) ->
      let g = gates.(kind + (3 * ((b lsr 1) land 1))) in
      nodes := g c (pick a) (pick b) :: !nodes;
      incr count)
    ops;
  for o = 0 to no - 1 do
    N.set_output c o (pick ((o * 7) + 3))
  done;
  c

(* The guarantees of the strashing builders, which the sweep and the
   lint rely on without checking them: a netlist node's operands
   precede it, no gate reads a constant node, no inverter reads an
   inverter, and no two gates share a commutation-aware key. *)
let netlist_invariants c =
  let key = function
    | N.And2 (a, b) -> N.And2 (min a b, max a b)
    | N.Or2 (a, b) -> N.Or2 (min a b, max a b)
    | N.Xor2 (a, b) -> N.Xor2 (min a b, max a b)
    | N.Nand2 (a, b) -> N.Nand2 (min a b, max a b)
    | N.Nor2 (a, b) -> N.Nor2 (min a b, max a b)
    | N.Xnor2 (a, b) -> N.Xnor2 (min a b, max a b)
    | g -> g
  in
  let is_const a = match N.gate c a with N.Const _ -> true | _ -> false in
  let gates =
    List.filter_map
      (fun node ->
        match N.gate c node with
        | N.Const _ | N.Input _ -> None
        | g -> Some (node, g))
      (List.init (N.num_nodes c) Fun.id)
  in
  let keys = List.map (fun (_, g) -> key g) gates in
  List.for_all
    (fun (node, g) ->
      List.for_all (fun a -> a < node && not (is_const a)) (N.fanins g)
      &&
      match g with
      | N.Not a -> ( match N.gate c a with N.Not _ -> false | _ -> true)
      | _ -> true)
    gates
  && List.length (List.sort_uniq compare keys) = List.length keys

(* an AIG's AND fanins precede it, are no constant literal, and are two
   distinct nodes *)
let aig_invariants a =
  List.for_all
    (fun node ->
      let l0, l1 = Aig.fanins a node in
      let ok l = Aig.lit_node l < node && Aig.lit_node l <> 0 in
      ok l0 && ok l1 && Aig.lit_node l0 <> Aig.lit_node l1)
    (List.init (Aig.num_ands a) (fun k -> Aig.num_inputs a + 1 + k))

(* every way the program makes a circuit from another: the recipe
   netlists (AND/NOT through the AIG import, and all six binary gates),
   a rebuild under a random plan of aliases (constants included) and
   XORs, the AIG round trip and the three readers *)
let prop_builder_invariants () =
  check_prop "builders keep their structural invariants" arb_recipe (fun r ->
      let rng = Rng.create (Hashtbl.hash r) in
      let plan node =
        match Rng.int rng 4 with
        | 0 when node > 0 -> Rebuild.Alias (Rng.int rng node, Rng.bool rng)
        | 1 when node > 0 ->
            Rebuild.Xor (Rng.int rng node, Rng.int rng node, Rng.bool rng)
        | _ -> Rebuild.Keep
      in
      List.for_all
        (fun n ->
          let aig = Aig.of_netlist n in
          List.for_all netlist_invariants
            [
              n;
              Rebuild.apply n plan;
              Aig.to_netlist aig;
              Io.read (Io.write n);
              Blif.read (Blif.write n);
            ]
          && aig_invariants aig
          && aig_invariants (Aiger.read (Aiger.write aig)))
        [ build_netlist r; build_gate_netlist r ])

(* the CNF encoder against simulation: with every input pinned by a unit
   clause the model is forced, so each node variable must read the
   node's simulated bit, and assuming one node's negation is Unsat *)
let prop_encoder_matches_simulation () =
  check_prop "Soa.encode == Soa.node_values" arb_recipe (fun r ->
      let rng = Rng.create 47 in
      let agrees s =
        let solver = Sat.create () in
        Soa.encode s solver;
        let bits = Array.init (Soa.num_inputs s) (fun _ -> Rng.bool rng) in
        Array.iteri
          (fun i b ->
            let v = List.hd (Soa.input_readers s i) + 1 in
            Sat.add_clause solver [ (if b then v else -v) ])
          bits;
        let vals =
          Soa.node_values s (Array.map (fun b -> if b then -1L else 0L) bits)
        in
        let bit n = vals.(n) <> 0L in
        let nodes = List.init (Soa.num_nodes s) Fun.id in
        Sat.solve solver = Sat.Sat
        && List.for_all (fun n -> Sat.value solver (n + 1) = bit n) nodes
        &&
        let n = Rng.int rng (Soa.num_nodes s) in
        let v = n + 1 in
        Sat.solve ~assumptions:[ (if bit n then -v else v) ] solver = Sat.Unsat
      in
      agrees (Soa.of_netlist (build_netlist r))
      && agrees (Ksim.soa_of_aig (build_aig r))
      && agrees (Soa.of_netlist (build_gate_netlist r)))

(* ---------------- fraig classes and decision sets ---------------- *)

(* recipes over 1 to 10 inputs with Shannon rows (kinds 3 and 4), so the
   AIG holds duplicated cones, complemented ones (a row over a
   complemented literal), and constants; AIG-only, since
   [build_gate_netlist] reads kinds 0 to 2 *)
let arb_dup_recipe =
  {
    arb_recipe with
    gen =
      (fun rng size ->
        let ni = 1 + Rng.int rng 10 and no = 1 + Rng.int rng 4 in
        let ops =
          List.init (Rng.int rng ((2 * size) + 2)) (fun _ ->
              (Rng.int rng 5, Rng.int rng 1000, Rng.int rng 1000))
        in
        { ni; no; ops });
  }

(* [Aig]'s structural hash against a tuple-keyed model of it: random
   runs of [and_lit] and [lookup_and] over constants, inputs, earlier
   results and their complements return the same literals and leave the
   same node count. An operand is [pool.(k / 2)] complemented by [k]'s
   low bit. *)
type strash_run = { s_ni : int; s_ops : (bool * int * int) list }

let arb_strash_run =
  {
    gen =
      (fun rng size ->
        let s_ni = 1 + Rng.int rng 8 in
        let s_ops =
          List.init (10 + Rng.int rng (60 * size)) (fun _ ->
              (Rng.int rng 4 = 0, Rng.int rng 1000, Rng.int rng 1000))
        in
        { s_ni; s_ops });
    shrink =
      (fun r ->
        List.map
          (fun s_ops -> { r with s_ops })
          (shrink_list (fun _ -> []) r.s_ops));
    print =
      (fun r ->
        Printf.sprintf "ni=%d ops=[%s]" r.s_ni
          (String.concat "; "
             (List.map
                (fun (lookup, a, b) ->
                  Printf.sprintf "%s %d %d"
                    (if lookup then "lookup" else "and")
                    a b)
                r.s_ops)));
  }

let prop_strash_matches_model () =
  check_prop "Aig strash == tuple-keyed model" arb_strash_run (fun r ->
      let aig = Aig.create ~num_inputs:r.s_ni ~num_outputs:0 in
      let table = Hashtbl.create 16 and nodes = ref (1 + r.s_ni) in
      let model ~create a b =
        let a, b = if a <= b then (a, b) else (b, a) in
        if a = 0 then Some 0
        else if a = 1 then Some b
        else if a = b then Some a
        else if a = b lxor 1 then Some 0
        else
          match Hashtbl.find_opt table (a, b) with
          | Some n -> Some (2 * n)
          | None when create ->
              Hashtbl.replace table (a, b) !nodes;
              incr nodes;
              Some (2 * (!nodes - 1))
          | None -> None
      in
      let pool = ref (Array.init (1 + r.s_ni) (fun n -> 2 * n)) in
      let pick k =
        let p = !pool in
        p.(k / 2 mod Array.length p) lxor (k land 1)
      in
      List.for_all
        (fun (lookup, x, y) ->
          let a = pick x and b = pick y in
          let got =
            if lookup then Aig.lookup_and aig a b
            else Some (Aig.and_lit aig a b)
          in
          Option.iter (fun l -> pool := Array.append !pool [| l |]) got;
          got = model ~create:(not lookup) a b)
        r.s_ops
      && Aig.num_nodes aig = !nodes)

(* node [n]'s truth table over all 2^10 patterns of the first ten inputs,
   as 16 words (fewer inputs repeat patterns) *)
let truth_tables soa =
  let ni = Soa.num_inputs soa in
  let lane_bit i =
    let w = ref 0L in
    for p = 0 to 63 do
      if (p lsr i) land 1 = 1 then w := Int64.logor !w (Int64.shift_left 1L p)
    done;
    !w
  in
  let blocks =
    List.init 16 (fun b ->
        Soa.node_values soa
          (Array.init ni (fun i ->
               if i < 6 then lane_bit i
               else if (b lsr (i - 6)) land 1 = 1 then -1L
               else 0L)))
  in
  fun n -> List.map (fun v -> v.(n)) blocks

(* [Fraig.classes] converges to the exact functional partition: every
   node's representative literal is [2 * k + phase] for the smallest [k]
   whose truth table equals the node's or its complement. One seed word
   leaves spurious classes, so SAT calls, counterexample resimulation
   and bucket probing all run; no cap binds at these sizes *)
let prop_fraig_exact_partition () =
  check_prop "Fraig.classes == exact partition" arb_dup_recipe (fun r ->
      let exact soa =
        let cls =
          Lr_aig.Fraig.classes ~layer:"prop" ~words:1 ~rng:(Rng.create 3) soa
        in
        let tt = truth_tables soa in
        let rec root tx k =
          let tk = tt k in
          if tk = tx then 2 * k
          else if tk = List.map Int64.lognot tx then (2 * k) + 1
          else root tx (k + 1)
        in
        List.for_all
          (fun x -> cls.Lr_aig.Fraig.repr.(x) = root (tt x) 0)
          (List.init (Soa.num_nodes soa) Fun.id)
      in
      let aig = build_aig r in
      exact (Ksim.soa_of_aig aig) && exact (Soa.of_netlist (Aig.to_netlist aig)))

(* One miter query on [solver], which holds [soa]'s CNF: can [a xor b]
   differ from [phase]? With [cone], the solve decides only [cone]'s
   node variables. Returns the verdict, and whether a Sat answer
   separates the pair when the inputs outside [cone] take 64 random
   fills *)
let miter_query soa solver ~rng ?cone (a, b, phase) =
  let t = Sat.new_var solver in
  Soa.xor_clauses solver t (a + 1) (b + 1);
  let decide = Option.map (Array.map succ) cone in
  let verdict =
    Sat.solve ~assumptions:[ (if phase then -t else t) ] ?decide solver
  in
  let decided r = match cone with None -> true | Some c -> Array.mem r c in
  let separates () =
    let words =
      Array.init (Soa.num_inputs soa) (fun i ->
          let r = List.hd (Soa.input_readers soa i) in
          if not (decided r) then Rng.bits64 rng
          else if Sat.value solver (r + 1) then -1L
          else 0L)
    in
    let v = Soa.node_values soa words in
    Int64.equal (Int64.logxor v.(a) v.(b)) (if phase then 0L else -1L)
  in
  (verdict, verdict = Sat.Unsat || separates ())

(* a solve that decides only the pair's fanin (closed under fanin, as
   [Soa.transitive_fanin] returns it) gives the full solve's verdict, and
   its counterexample separates the pair whatever the other inputs are;
   eight queries per solver, so earlier miters sit in the CNF *)
let prop_decision_set_agrees () =
  check_prop "Sat.solve ~decide == Sat.solve" arb_recipe (fun r ->
      let rng = Rng.create 61 in
      let agrees soa =
        let full = Sat.create () and part = Sat.create () in
        Soa.encode soa full;
        Soa.encode soa part;
        let fanin = Soa.transitive_fanin soa in
        let n = Soa.num_nodes soa in
        List.for_all
          (fun _ ->
            let a = Rng.int rng n and b = Rng.int rng n in
            let q = (a, b, Rng.bool rng) in
            let want, _ = miter_query soa full ~rng q in
            let got, separated =
              miter_query soa part ~rng ~cone:(fanin [ a; b ]) q
            in
            want = got && separated)
          (List.init 8 Fun.id)
      in
      agrees (Ksim.soa_of_aig (build_aig r))
      && agrees (Soa.of_netlist (build_gate_netlist r)))

(* the closure is what makes a decision set sound: [a] and [b] compute
   [x0 xor x1] through different gates, and a set without the inputs
   lets propagation from [a] and [b] stop short of any conflict, so the
   solve answers Sat on an Unsat query and its counterexample separates
   nothing *)
let test_decision_set_needs_closure () =
  let c = N.create ~input_names:[| "x0"; "x1" |] ~output_names:[| "o" |] in
  let x0 = N.input c 0 and x1 = N.input c 1 in
  let a = N.xor_ c x0 x1 in
  let b = N.not_ c (N.xnor_ c x0 x1) in
  N.set_output c 0 (N.and_ c a b);
  let soa = Soa.of_netlist c in
  (* (proved equal, counterexample sound) *)
  let query cone =
    let solver = Sat.create () in
    Soa.encode soa solver;
    let verdict, separated =
      miter_query soa solver ~rng:(Rng.create 5) ?cone (a, b, false)
    in
    (verdict = Sat.Unsat, separated)
  in
  let check = Alcotest.(check (pair bool bool)) in
  check "full solve" (true, true) (query None);
  check "closed set" (true, true)
    (query (Some (Soa.transitive_fanin soa [ a; b ])));
  check "open set: a wrong Sat that separates nothing" (false, false)
    (query (Some [| a; b |]))

(* the multi-block entry against one [Netlist.eval_words] call per
   block, on block counts around [max_width], where the passes split *)
let prop_eval_blocks_matches_words () =
  check_prop "Soa.eval_blocks == eval_words per block" arb_recipe (fun r ->
      let c = build_netlist r in
      let s = Soa.of_netlist c in
      let rng = Rng.create 59 in
      let w = Soa.max_width in
      List.for_all
        (fun k ->
          let blocks = Array.init k (fun _ -> words rng r.ni) in
          gate_words (fun () -> Soa.eval_blocks s blocks)
          = (Array.map (N.eval_words c) blocks, k * observed s))
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

(* The reference's result and pattern counts, with its gate-words
   (every node of both circuits, per block) replaced by what [Eval]
   simulates: the nodes each circuit's outputs read, per block. *)
let word_scoring_agrees ~np ~golden ~candidate (r, counts) (r', counts') =
  let blocks = (np + 63) / 64 in
  let obs c = observed (Soa.of_netlist c) in
  r = r'
  &&
  match (counts, counts') with
  | [ ep; sp; gw ], [ ep'; sp'; _ ] ->
      ep = ep' && sp = sp' && gw = blocks * (obs golden + obs candidate)
  | _ -> false

(* both scorers on [golden] and [candidate] at pattern counts that
   straddle a block, each set drawn from [rng] *)
let scoring_agrees ~rng ~golden ~candidate =
  List.for_all
    (fun np ->
      let patterns =
        Eval.mixture ~rng ~num_inputs:(N.num_inputs golden) ~count:np
      in
      let agrees x y = word_scoring_agrees ~np ~golden ~candidate x y in
      agrees
        (with_scoring_counts (fun () ->
             Eval.accuracy_on ~patterns ~golden ~candidate ()))
        (with_scoring_counts (fun () ->
             reference_accuracy ~patterns ~golden ~candidate))
      && agrees
           (with_scoring_counts (fun () ->
                Eval.per_output_accuracy ~patterns ~golden ~candidate ()))
           (with_scoring_counts (fun () ->
                reference_per_output ~patterns ~golden ~candidate)))
    [ 0; 1; 63; 64; 65; 1000 ]

(* Recipes have at most seven inputs, one word per pattern. case_18
   (102 inputs) and case_3 (72) score patterns of two words against the
   circuits a quick learn makes of them (case_18's at about 50 %). *)
let prop_word_scoring_matches_reference () =
  check_prop ~count:30 "word-native Eval == per-pattern scorer"
    arb_scoring_pair (fun (g, ops) ->
      scoring_agrees
        ~rng:(Rng.create (List.length ops))
        ~golden:(build_netlist g)
        ~candidate:(build_netlist { g with ops }));
  List.iter
    (fun name ->
      let spec = Lr_cases.Cases.find name in
      let report =
        Learner.learn
          ~config:{ Config.default with Config.support_rounds = 60 }
          (Lr_cases.Cases.blackbox ~budget:200_000 spec)
      in
      Alcotest.(check bool)
        (name ^ ": word-native Eval == per-pattern scorer")
        true
        (scoring_agrees ~rng:(Rng.create 34)
           ~golden:(Lr_cases.Cases.build spec)
           ~candidate:report.Learner.circuit))
    [ "case_18"; "case_3" ]

(* a netlist simulation with [node] pinned to [w], stepped node by node
   over [N.gate] (fanins precede their nodes): its output words *)
let pinned_outputs c words node w =
  let v = Array.make (N.num_nodes c) 0L in
  for n = 0 to N.num_nodes c - 1 do
    v.(n) <- (if n = node then w else Sweep_ref.gate_word c v words n)
  done;
  Array.init (N.num_outputs c) (fun o -> v.(N.output c o))

let prop_forced_probe_matches_full () =
  check_prop "forced probe == full resim, node pinned" arb_recipe (fun r ->
      let c = build_netlist r in
      let s = Soa.of_netlist c in
      let rng = Rng.create 47 in
      let cur = words rng r.ni in
      let store = Soa.store s cur in
      let base = N.eval_words c cur in
      List.for_all
        (fun _ ->
          (* the lanes on which pinning the node moves some output *)
          let node = Rng.int rng (Soa.num_nodes s) in
          let w = Rng.bits64 rng in
          let moved =
            Array.fold_left Int64.logor 0L
              (Array.map2 Int64.logxor (pinned_outputs c cur node w) base)
          in
          Soa.forced_diff store (Soa.cone s [ node ]) w = moved)
        (List.init 6 Fun.id)
      &&
      (* every probe restored what it touched, and the store holds the
         full simulation's word at every observed node *)
      let fresh = Soa.store s cur in
      let full = Soa.node_values s cur in
      let observed = N.reachable c in
      List.for_all
        (fun n ->
          Soa.value store n = Soa.value fresh n
          && ((not observed.(n)) || Soa.value fresh n = full.(n)))
        (List.init (Soa.num_nodes s) Fun.id))

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
  let st0 = Soa.store s0 [||] in
  check_words "0-input store outputs" (N.eval_words c0 [||])
    (Array.init 2 (fun o -> Soa.value st0 (N.output c0 o)));
  Alcotest.(check int64)
    "0-input forced constant" (-1L)
    (Soa.forced_diff st0 (Soa.cone s0 [ N.output c0 0 ]) 0L);
  (* zero-gate netlist: an input wired straight to the output *)
  let c1 = N.create ~input_names:[| "a"; "b" |] ~output_names:[| "y" |] in
  N.set_output c1 0 (N.input c1 1);
  let s1 = Soa.of_netlist c1 in
  let rng = Rng.create 53 in
  let w = words rng 2 in
  check_words "0-gate eval_words" (N.eval_words c1 w) (Soa.eval_words s1 w);
  let st1 = Soa.store s1 w in
  check_words "0-gate store outputs" (N.eval_words c1 w)
    [| Soa.value st1 (N.output c1 0) |];
  (* no gate to re-run: the output reads the forced input directly *)
  Alcotest.(check int64)
    "0-gate forced input" (-1L)
    (Soa.forced_diff st1 (Soa.cone s1 [ N.input c1 1 ]) (Int64.lognot w.(1)));
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
  Alcotest.(check int) "0-input checks verified" 6 r.Learner.checks_verified;
  (* shapes of the observed schedule: every output-only entry point
     agrees with the netlist and simulates exactly [nodes] nodes *)
  let observed_shape name c ~nodes =
    let s = Soa.of_netlist c in
    Alcotest.(check int) (name ^ ": observed nodes") nodes (Soa.num_observed s);
    Alcotest.(check int) (name ^ ": transitive fanin") nodes (observed s);
    let ni = N.num_inputs c in
    let blocks = Array.init (Soa.max_width + 1) (fun _ -> words rng ni) in
    let got, ticked = gate_words (fun () -> Soa.eval_words s blocks.(0)) in
    check_words (name ^ ": eval_words") (N.eval_words c blocks.(0)) got;
    Alcotest.(check int) (name ^ ": eval_words ticks") nodes ticked;
    let got, ticked = gate_words (fun () -> Soa.eval_blocks s blocks) in
    Alcotest.(check bool)
      (name ^ ": eval_blocks") true
      (got = Array.map (N.eval_words c) blocks);
    Alcotest.(check int)
      (name ^ ": eval_blocks ticks")
      (nodes * Array.length blocks)
      ticked;
    let patterns = Array.init 70 (fun _ -> Bv.random rng ni) in
    let got, ticked = gate_words (fun () -> Soa.eval_many s patterns) in
    Alcotest.(check bool)
      (name ^ ": eval_many") true
      (Array.for_all2 Bv.equal (N.eval_many c patterns) got);
    Alcotest.(check int) (name ^ ": eval_many ticks") (2 * nodes) ticked
  in
  let shape outputs =
    let c =
      N.create ~input_names:[| "a"; "b"; "c" |]
        ~output_names:(Array.map fst outputs)
    in
    let a = N.input c 0 and b = N.input c 1 and x = N.input c 2 in
    let g = N.xor_ c (N.and_ c a b) (N.or_ c b x) in
    Array.iteri
      (fun o (_, pick) -> N.set_output c o (pick c ~a ~b ~g))
      outputs;
    c
  in
  (* an output wired to an input beside one that reads the gates:
     b, g, its three gates and all three inputs *)
  observed_shape "output on an input"
    (shape [| ("y", fun _ ~a:_ ~b ~g:_ -> b); ("z", fun _ ~a:_ ~b:_ ~g -> g) |])
    ~nodes:6;
  (* an output wired to a constant beside the gates: the constant joins
     the five nodes above *)
  observed_shape "output on a constant"
    (shape
       [|
         ("t", fun c ~a:_ ~b:_ ~g:_ -> N.const_true c);
         ("z", fun _ ~a:_ ~b:_ ~g -> g);
       |])
    ~nodes:7;
  (* gates no output reads: only input a and constant false run *)
  observed_shape "every gate unobserved"
    (shape
       [|
         ("y", fun _ ~a ~b:_ ~g:_ -> a);
         ("f", fun c ~a:_ ~b:_ ~g:_ -> N.const_false c);
       |])
    ~nodes:2

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
   is still well-formed: the lint finds no error-severity problems and
   the builder invariants hold *)
let prop_degraded_netlist_lints () =
  check_prop ~count:8 "degraded runs emit lint-clean netlists"
    arb_faulted_recipe (fun (r, spec) ->
      let hard = { spec with F.fail_p = 1.0; fail_burst = 0 } in
      let report = tiny_learn ~faults:hard r in
      report.Learner.degraded = List.length report.Learner.outputs
      && Finding.errors (Lint.netlist report.Learner.circuit) = []
      && netlist_invariants report.Learner.circuit)

(* Fault spec reader fuzzing: the [key=value] parts of a [F.to_string]
   text under a list of edits. An edit (kind, i, v) replaces part [i]'s
   value by [fault_values.(v)] (0), drops part [i] (1), duplicates it
   with that value (2), appends an unknown or misspelt key (3), or
   truncates the text at byte [i] (4). The specs carry full-precision
   floats and, now and then, a latency whose probability is 0 but whose
   seconds are not, so an inexact printer shows. *)
let fault_values =
  [|
    "-1"; "0"; "1"; "2"; string_of_int max_int; string_of_int min_int;
    "99999999999999999999"; "1e400"; "-1e400"; "1e-400"; "-0"; "4.9e-324";
    "0.1234567890123"; "0.00012345678901234"; "0x1p-3"; "1_000"; "nan";
    "inf"; "-inf"; ""; "x"; "="; ":"; "0:5"; "0.5:nan"; "1:1:1"; "3:2";
    "3:1"; "0.5:-1"; "0.5:1e-300";
  |]

let fault_text (spec, edits) =
  let parts =
    List.map
      (fun part ->
        match String.index_opt part '=' with
        | Some i ->
            (String.sub part 0 i, String.sub part (i + 1) (String.length part - i - 1))
        | None -> (part, ""))
      (String.split_on_char ',' (F.to_string spec))
  in
  let cut = ref None in
  let parts =
    List.fold_left
      (fun parts (kind, i, v) ->
        let n = List.length parts in
        let i' = if n = 0 then 0 else i mod n in
        let value = fault_values.(v mod Array.length fault_values) in
        match kind, parts with
        | 4, _ ->
            cut := Some i;
            parts
        | 3, _ ->
            parts @ [ ([| "bogus"; "Seed"; "fail "; "" |].(v mod 4), value) ]
        | _, [] -> parts
        | 0, _ -> List.mapi (fun j (k, x) -> (k, if j = i' then value else x)) parts
        | 1, _ -> List.filteri (fun j _ -> j <> i') parts
        | _, _ -> parts @ [ (fst (List.nth parts i'), value) ])
      parts edits
  in
  let text = String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) parts) in
  match !cut with
  | Some i -> String.sub text 0 (i mod (String.length text + 1))
  | None -> text

let arb_fault_mutant =
  {
    gen =
      (fun rng _ ->
        let corruption =
          match Rng.int rng 3 with
          | 0 -> None
          | 1 -> Some F.Flip
          | _ -> Some (F.Stuck_at (Rng.bool rng))
        in
        let latency_p = if Rng.bool rng then 0.0 else Rng.float rng in
        let spec =
          {
            F.seed = Rng.int rng 1_000_000 - 500;
            fail_p = (if Rng.bool rng then 0.0 else Rng.float rng);
            fail_burst = Rng.int rng 4;
            latency_p;
            latency_s = (if Rng.bool rng then 0.0 else 10.0 *. Rng.float rng);
            corruption;
            victim = (if corruption = None then 0 else Rng.int rng 64);
            onset = Rng.int rng 1000;
            duration = (if Rng.bool rng then max_int else Rng.int rng 1000);
            exhaust_after =
              (if Rng.bool rng then Some (Rng.int rng 10_000) else None);
          }
        in
        let edit _ = (Rng.int rng 5, Rng.int rng 1000, Rng.int rng 1000) in
        (spec, List.init (Rng.int rng 4) edit));
    shrink =
      (fun (spec, edits) ->
        List.map (fun edits -> (spec, edits)) (shrink_list (fun _ -> []) edits));
    print = (fun m -> Printf.sprintf "%S" (fault_text m));
  }

(* every mutant is accepted or refused with an [Error], never an
   exception, and an accepted spec reads back to itself through
   [F.to_string]. Both outcomes must occur, or the edits are not
   biting. *)
let prop_fault_reader_mutants () =
  let accepted = ref 0 and refused = ref 0 in
  check_prop ~count:2000 "mutated fault specs parse exactly or are refused"
    arb_fault_mutant (fun m ->
      match F.of_string (fault_text m) with
      | Ok spec ->
          incr accepted;
          F.of_string (F.to_string spec) = Ok spec
      | Error _ ->
          incr refused;
          true);
  Alcotest.(check bool) "some mutants accepted" true (!accepted > 0);
  Alcotest.(check bool) "some mutants refused" true (!refused > 0)

(* ---------------- toggle queries ---------------- *)

(* [Box.query_toggles] against one [Box.query_many] per materialised
   block, in order: a random recipe behind a plain netlist box, a
   faulty one retrying transient failures, or a function box; a lane
   count of 0, 1, 63, 64 or in between; calls with no toggles or up to a
   dozen toggle sets of 1-3 distinct inputs, some no output reads; a
   fault schedule mixing transient failures under a retry policy,
   corruption whose window opens mid-block, and premature exhaustion;
   and now and then a strict shard whose slice runs out mid-call *)
type toggle_case = {
  tr : recipe;
  count : int;
  calls : int array array list;  (** each call's toggle sets *)
  function_box : bool;
  tfaults : (F.spec * int) option;  (** schedule, retry attempts *)
  slice : int option;  (** a strict shard's budget *)
}

let arb_toggle_case =
  {
    gen =
      (fun rng size ->
        let tr = arb_recipe.gen rng size in
        let count =
          match Rng.int rng 5 with
          | 0 -> 0
          | 1 -> 1
          | 2 -> 63
          | 3 -> 64
          | _ -> 1 + Rng.int rng 64
        in
        let toggle () =
          let k = 1 + Rng.int rng (min 3 tr.ni) in
          let rec draw acc =
            if List.length acc = k then Array.of_list acc
            else
              let i = Rng.int rng tr.ni in
              draw (if List.mem i acc then acc else i :: acc)
          in
          draw []
        in
        let calls =
          List.init (1 + Rng.int rng 3) (fun _ ->
              Array.init (Rng.int rng 13) (fun _ -> toggle ()))
        in
        let total =
          count
          * List.fold_left (fun n ts -> n + 1 + Array.length ts) 0 calls
        in
        let tfaults =
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
                victim = Rng.int rng (tr.no + 1);
                onset = Rng.int rng (total + 1);
                duration =
                  (if Rng.bool rng then max_int else 1 + Rng.int rng 80);
                exhaust_after =
                  (if Rng.bool rng then Some (Rng.int rng (total + 1))
                   else None);
              }
            in
            Some (spec, 1 + Rng.int rng 4)
        in
        let slice =
          if Rng.int rng 3 = 0 then Some (Rng.int rng (total + 1)) else None
        in
        { tr; count; calls; function_box = Rng.int rng 3 = 0; tfaults; slice });
    shrink =
      (fun c -> List.map (fun tr -> { c with tr }) (arb_recipe.shrink c.tr));
    print =
      (fun c ->
        let set ts =
          String.concat ","
            (List.map string_of_int (Array.to_list ts))
        in
        Printf.sprintf "%s count=%d calls=[%s] function=%b faults=%s slice=%s"
          (arb_recipe.print c.tr) c.count
          (String.concat ";"
             (List.map
                (fun ts ->
                  "{" ^ String.concat " " (List.map set (Array.to_list ts)) ^ "}")
                c.calls))
          c.function_box
          (match c.tfaults with
          | None -> "none"
          | Some (spec, retry) ->
              Printf.sprintf "%s retry=%d" (F.to_string spec) retry)
          (match c.slice with None -> "none" | Some b -> string_of_int b));
  }

let prop_query_toggles_matches_many () =
  let unobserved = ref 0 in
  check_prop ~count:150 "query_toggles == one query_many per materialised block"
    arb_toggle_case (fun c ->
      let n = build_netlist c.tr in
      let observed =
        let s = Soa.of_netlist n in
        let cone =
          Soa.transitive_fanin s (List.init (N.num_outputs n) (N.output n))
        in
        fun i -> Array.exists (fun m -> N.gate n m = N.Input i) cone
      in
      List.iter
        (Array.iter (fun ts ->
             if not (Array.for_all observed ts) then incr unobserved))
        c.calls;
      let box () =
        let b =
          if c.function_box then
            Box.of_function ~input_names:(N.input_names n)
              ~output_names:(N.output_names n) (N.eval n)
          else Box.of_netlist n
        in
        (match c.tfaults with
        | None -> ()
        | Some (spec, retry) ->
            Box.set_faults b (Some spec);
            Box.set_retry b (F.retry ~backoff_s:0.0 retry));
        match c.slice with
        | None -> b
        | Some budget -> Box.shard ~budget ~strict:true b
      in
      let by_many = box () and by_toggles = box () in
      let rng = Rng.create ((c.count * 31) + List.length c.calls) in
      let answers =
        List.mapi
          (fun call toggles ->
            (* the lanes past [count] carry noise the box must ignore *)
            let base =
              Array.init c.tr.ni (fun _ ->
                  let w = Rng.bits64 rng in
                  if c.count = 64 then w
                  else
                    Int64.logor
                      (Int64.logand w (Int64.pred (Int64.shift_left 1L c.count)))
                      (Int64.shift_left (Rng.bits64 rng) c.count))
            in
            let patterns = Bv.of_lanes c.count base in
            let blocks =
              patterns
              :: List.map
                   (fun ts ->
                     Array.map
                       (fun p ->
                         let p = Bv.copy p in
                         Array.iter (Bv.flip p) ts;
                         p)
                       patterns)
                   (Array.to_list toggles)
            in
            let span = if call mod 2 = 0 then "even" else "odd" in
            let attempt f =
              try Ok (Lr_instr.Instr.span ~name:span f)
              with (F.Query_failed _ | Box.Exhausted _) as e ->
                Error (Printexc.to_string e)
            in
            ( attempt (fun () ->
                  Array.of_list
                    (List.map
                       (fun ps ->
                         Bv.to_lanes c.tr.no (Box.query_many by_many ps))
                       blocks)),
              attempt (fun () ->
                  Box.query_toggles by_toggles ~count:c.count base toggles) ))
          c.calls
      in
      let weight b = Lr_report.Histogram.count (Box.query_latency b) in
      List.for_all (fun (a, b) -> a = b) answers
      && Box.queries_used by_many = Box.queries_used by_toggles
      && Box.queries_by_span by_many = Box.queries_by_span by_toggles
      && Box.retries_used by_many = Box.retries_used by_toggles
      && Box.faults_seen by_many = Box.faults_seen by_toggles
      && Box.exhausted by_many = Box.exhausted by_toggles
      && weight by_many = weight by_toggles);
  Alcotest.(check bool) "some toggles reach no output" true (!unobserved > 0)

(* ---------------- the serving plane ---------------- *)

let equivalent a b =
  match Equiv.check a b with
  | Equiv.Equivalent -> true
  | Equiv.Counterexample _ -> false

(* Spec reader fuzzing: the fields of a [Proto.to_json] text under a
   list of edits. An edit (kind, i, v) replaces field [i]'s value by
   the raw JSON text [spec_values.(v)] (0), drops field [i] (1),
   duplicates it with that value (2), or truncates the text at byte [i]
   (3): extreme and overflowing numbers, wrong types, retired values,
   missing and repeated keys, cut documents. *)
let spec_values =
  [|
    "99999999999999999999"; "-99999999999999999999"; string_of_int max_int;
    string_of_int min_int; "1e999"; "-1e999"; "1e-999"; "-0"; "0.5"; "-1";
    "0"; "9.3e18"; {|"const"|}; {|"full"|}; {|"off"|}; {|"structural"|};
    {|"contest"|}; {|"lr-serve/v1"|}; {|""|}; {|"\u0000"|}; {|"\ud800"|};
    "true"; "false"; "null"; "[]"; "{}"; "[1,2]"; {|{"case":"case_1"}|};
  |]

let spec_text (spec, edits) =
  let fields =
    match Proto.to_json spec with
    | Json.Obj kv -> List.map (fun (k, v) -> (k, Json.to_string v)) kv
    | _ -> assert false
  in
  let cut = ref None in
  let fields =
    List.fold_left
      (fun fields (kind, i, v) ->
        let n = List.length fields in
        let i' = if n = 0 then 0 else i mod n in
        let value = spec_values.(v mod Array.length spec_values) in
        match kind, fields with
        | 3, _ ->
            cut := Some i;
            fields
        | _, [] -> fields
        | 0, _ -> List.mapi (fun j (k, x) -> (k, if j = i' then value else x)) fields
        | 1, _ -> List.filteri (fun j _ -> j <> i') fields
        | _, _ -> fields @ [ (fst (List.nth fields i'), value) ])
      fields edits
  in
  let text =
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Json.to_string (Json.String k) ^ ":" ^ v) fields)
    ^ "}"
  in
  match !cut with
  | Some i -> String.sub text 0 (i mod (String.length text + 1))
  | None -> text

let arb_spec_mutant =
  {
    gen =
      (fun rng _ ->
        let pick a = a.(Rng.int rng (Array.length a)) in
        let maybe f = if Rng.bool rng then Some (f ()) else None in
        let spec =
          {
            (Proto.default ~case:(pick [| "case_1"; "case_7"; "c.blif" |])) with
            Proto.tenant = pick [| "default"; "t1" |];
            preset = pick [| "improved"; "contest" |];
            seed = Rng.int rng 100;
            budget = maybe (fun () -> 1 + Rng.int rng 100_000);
            time_budget_s = maybe (fun () -> 0.5 +. float_of_int (Rng.int rng 10));
            support_rounds = maybe (fun () -> 1 + Rng.int rng 100);
            jobs = 1 + Rng.int rng 4;
            check = pick [| Config.Off; Config.Structural; Config.Full |];
            sweep = pick [| Config.Sweep_off; Config.Sweep_full |];
            use_cache = Rng.bool rng;
          }
        in
        let edit _ = (Rng.int rng 4, Rng.int rng 1000, Rng.int rng 1000) in
        (spec, List.init (1 + Rng.int rng 3) edit));
    shrink =
      (fun (spec, edits) ->
        List.map (fun edits -> (spec, edits)) (shrink_list (fun _ -> []) edits));
    print = (fun m -> Printf.sprintf "%S" (spec_text m));
  }

(* every mutant is accepted or refused with an [Error], never an
   exception, and an accepted spec re-encodes to an accepted spec. Both
   outcomes must occur, or the edits are not biting. *)
let prop_spec_reader_mutants () =
  let accepted = ref 0 and refused = ref 0 in
  check_prop ~count:2000 "mutated lr-serve/v1 specs parse or are refused"
    arb_spec_mutant (fun m ->
      match Proto.of_string (spec_text m) with
      | Ok spec ->
          incr accepted;
          Result.is_ok (Proto.of_json (Proto.to_json spec))
      | Error _ ->
          incr refused;
          true);
  Alcotest.(check bool) "some mutants accepted" true (!accepted > 0);
  Alcotest.(check bool) "some mutants refused" true (!refused > 0)

(* Raw HTTP request bytes: a request is its request-line tokens, its
   header lines and a body. An edit replaces a request-line token, adds
   a header (extreme, negative or duplicated [Content-Length] among
   them), drops one, appends a query string to the target, or truncates
   the text. *)
let http_requests =
  [|
    ([ "GET"; "/healthz"; "HTTP/1.1" ], [ "Host: t" ], "");
    ( [ "GET"; "/progress?since=3"; "HTTP/1.1" ],
      [ "Host: t"; "Connection: close" ],
      "" );
    ( [ "POST"; "/learn"; "HTTP/1.1" ],
      [ "Host: t"; "Content-Type: application/json"; "Content-Length: 17" ],
      {|{"case":"case_7"}|} );
    ([ "POST"; "/shutdown"; "HTTP/1.0" ], [ "Content-Length: 0" ], "");
  |]

let http_tokens =
  [|
    ""; "?"; "/?"; "/a?b=c&d"; "/jobs/j1?x=1?y"; "??"; "GET"; "get"; "DELETE";
    "HTTP/1.1"; "HTTP/9"; "\r"; "\n"; "a b"; String.make 300 'x';
  |]

let http_headers =
  [|
    "Content-Length: 99999999999999999999"; "Content-Length: -5";
    "Content-Length: " ^ string_of_int max_int; "Content-Length: 2";
    "Content-Length: 0x10"; "Content-Length:"; "content-length:   4  ";
    "Content-Length: 1048577"; "Content-Length: 1_0";
    "X-Pad: " ^ String.make 9000 'p';
    ""; ":"; "Host"; "Transfer-Encoding: chunked";
  |]

let http_text ((line, headers, body), edits) =
  let cut = ref None in
  let line, headers =
    List.fold_left
      (fun (line, headers) (kind, i, v) ->
        let nh = List.length headers in
        match kind with
        | 0 ->
            let i = i mod List.length line in
            let tok = http_tokens.(v mod Array.length http_tokens) in
            (List.mapi (fun j t -> if j = i then tok else t) line, headers)
        | 1 ->
            let h = http_headers.(v mod Array.length http_headers) in
            (line, headers @ [ h ])
        | 2 when nh > 0 ->
            (line, List.filteri (fun j _ -> j <> i mod nh) headers)
        | 3 ->
            let q = http_tokens.(v mod Array.length http_tokens) in
            let query j t = if j = 1 then t ^ "?" ^ q else t in
            (List.mapi query line, headers)
        | 4 ->
            cut := Some i;
            (line, headers)
        | _ -> (line, headers))
      (line, headers) edits
  in
  let text =
    String.concat " " line ^ "\r\n"
    ^ String.concat "" (List.map (fun h -> h ^ "\r\n") headers)
    ^ "\r\n" ^ body
  in
  match !cut with
  | Some i -> String.sub text 0 (i mod (String.length text + 1))
  | None -> text

let arb_http_mutant =
  {
    gen =
      (fun rng _ ->
        let req = http_requests.(Rng.int rng (Array.length http_requests)) in
        let edit _ = (Rng.int rng 5, Rng.int rng 1000, Rng.int rng 1000) in
        (req, List.init (Rng.int rng 4) edit));
    shrink =
      (fun (req, edits) ->
        List.map (fun edits -> (req, edits)) (shrink_list (fun _ -> []) edits));
    print = (fun m -> Printf.sprintf "%S" (http_text m));
  }

(* the mutant is written whole to one end of a socket pair, which is
   then closed, so the reader sees the bytes and end of stream *)
let read_http_text text =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Http.close_quiet r)
    (fun () ->
      Fun.protect
        ~finally:(fun () -> Http.close_quiet w)
        (fun () -> Http.send w text);
      Http.read_request r)

(* every mutant reads as a request or as [None], never an exception, and
   an accepted request's path has its query string dropped. Both
   outcomes must occur, or the edits are not biting. *)
let prop_http_reader_mutants () =
  let accepted = ref 0 and refused = ref 0 in
  check_prop ~count:2000 "mutated HTTP requests read or are refused"
    arb_http_mutant (fun m ->
      match read_http_text (http_text m) with
      | Some req ->
          incr accepted;
          not (String.contains req.Http.path '?')
      | None ->
          incr refused;
          true);
  Alcotest.(check bool) "some mutants accepted" true (!accepted > 0);
  Alcotest.(check bool) "some mutants refused" true (!refused > 0)

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
    Alcotest.test_case "AIGER reader under mutation" `Quick
      prop_aiger_mutants;
    Alcotest.test_case "native and BLIF readers under mutation" `Quick
      prop_circuit_reader_mutants;
    Alcotest.test_case "builders keep their structural invariants" `Quick
      prop_builder_invariants;
    Alcotest.test_case "evaluator agreement" `Quick prop_evaluators_agree;
    Alcotest.test_case "SoA kernel == netlist evaluators" `Quick
      prop_soa_netlist_identical;
    Alcotest.test_case "SoA kernel == AIG simulation" `Quick
      prop_soa_aig_identical;
    Alcotest.test_case "eval_blocks == eval_words per block" `Quick
      prop_eval_blocks_matches_words;
    Alcotest.test_case "CNF encoder == simulation" `Quick
      prop_encoder_matches_simulation;
    Alcotest.test_case "fraig classes == exact partition" `Quick
      prop_fraig_exact_partition;
    Alcotest.test_case "strash == tuple-keyed model" `Quick
      prop_strash_matches_model;
    Alcotest.test_case "decision-set solve == full solve" `Quick
      prop_decision_set_agrees;
    Alcotest.test_case "decision set must be closed under fanin" `Quick
      test_decision_set_needs_closure;
    Alcotest.test_case "word-native scoring == per-pattern scorer" `Quick
      prop_word_scoring_matches_reference;
    Alcotest.test_case "forced probe == full resim, node pinned" `Quick
      prop_forced_probe_matches_full;
    Alcotest.test_case "kernel degenerate shapes" `Quick
      test_kernel_degenerate;
    Alcotest.test_case "transient fault transparency" `Quick
      prop_transient_faults_transparent;
    Alcotest.test_case "degraded netlists lint clean" `Quick
      prop_degraded_netlist_lints;
    Alcotest.test_case "fault spec reader under mutation" `Quick
      prop_fault_reader_mutants;
    Alcotest.test_case "query_toggles == query_many per materialised block"
      `Quick prop_query_toggles_matches_many;
    Alcotest.test_case "circuit cache round-trip" `Quick prop_cache_roundtrip;
    Alcotest.test_case "lr-serve/v1 reader under mutation" `Quick
      prop_spec_reader_mutants;
    Alcotest.test_case "HTTP request reader under mutation" `Quick
      prop_http_reader_mutants;
    Alcotest.test_case "fingerprints hash behaviour, not structure" `Quick
      prop_fingerprint_behavioural;
    Alcotest.test_case "shrinking reaches a minimum" `Quick
      test_shrinking_works;
  ]
