module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover
module N = Lr_netlist.Netlist
module B = Lr_netlist.Builder
module Box = Lr_blackbox.Blackbox
module Ps = Lr_sampling.Pattern_sampling
module G = Lr_grouping.Grouping
module T = Lr_templates.Templates
module Oracle = Lr_fbdt.Oracle
module Fbdt = Lr_fbdt.Fbdt
module Bdd = Lr_bdd.Bdd
module Aig = Lr_aig.Aig
module Opt = Lr_aig.Opt
module Instr = Lr_instr.Instr
module Json = Lr_instr.Json
module Histogram = Lr_report.Histogram
module Gcstat = Lr_report.Gcstat
module Selfcheck = Lr_check.Selfcheck
module Sweep = Lr_dataflow.Sweep
module Lint = Lr_check.Lint
module Finding = Lr_check.Finding
module Par = Lr_par.Par
module Faults = Lr_faults.Faults

type method_used =
  | Linear_template
  | Comparator_template
  | Bitwise_template
  | Shift_template
  | Exhaustive
  | Decision_tree
  | Skipped_budget
  | Degraded_fault

let method_to_string = function
  | Linear_template -> "linear-template"
  | Comparator_template -> "comparator-template"
  | Bitwise_template -> "bitwise-template"
  | Shift_template -> "shift-template"
  | Exhaustive -> "exhaustive"
  | Decision_tree -> "decision-tree"
  | Skipped_budget -> "skipped-budget"
  | Degraded_fault -> "degraded-fault"

type output_report = {
  output : int;
  output_name : string;
  method_used : method_used;
  support_size : int;
  cubes : int;
  used_offset : bool;
  complete : bool;
  compressed : bool;
}

type report = {
  circuit : Lr_netlist.Netlist.t;
  outputs : output_report list;
  queries : int;
  elapsed_s : float;
  matches : Lr_templates.Templates.matches option;
  phase_times : (string * float) list;
  phase_queries : (string * int) list;
  phase_gc : (string * Lr_report.Gcstat.t) list;
  query_latency : Lr_report.Histogram.summary;
  retries : int;
  phase_retries : (string * int) list;
  faults_seen : (string * int) list;
  degraded : int;
      (** outputs that gave up on a failing oracle ([Degraded_fault]) *)
  budget_exceeded : bool;
  query_budget_exceeded : bool;
  check_level : Config.check_level;
  checks_verified : int;
      (** semantic verifications that passed (0 unless [check_level = Full]) *)
  sweep_removed : int;
      (** gates reclaimed by the dataflow sweep (0 when [sweep = Sweep_off]) *)
  lint_findings : Lr_check.Finding.t list;
      (** structural lint of the final circuit ([] when [check_level = Off]) *)
  jobs : int;
  domain_times : (int * (string * float) list) list;
      (** per worker domain, summed conquer phase wall-clock *)
}

(* The five pipeline phases of Figure 1, in execution order, plus the
   cross-cutting "check" accumulator of the checked mode; span names in
   traces and keys of [phase_times]/[phase_queries]. Check spans nest
   inside the phase they guard (e.g. inside "aig-opt" for per-pass CEC),
   so the "check" row overlaps the others rather than adding to them. *)
let phase_names =
  [ "templates"; "support-id"; "fbdt"; "cover-min"; "aig-opt"; "sweep"; "check" ]

let report_json ?(extra = []) ~case ~seed ~time_budget_s ~faults
    ~eval_patterns ~accuracy report =
  let c = report.circuit in
  let stats = N.stats c in
  let assoc name l = Option.value (List.assoc_opt name l) ~default:0 in
  let gc_fields name =
    match List.assoc_opt name report.phase_gc with
    | Some g -> ( match Gcstat.to_json g with Json.Obj l -> l | _ -> [])
    | None -> []
  in
  let phase name seconds =
    [
      ("name", Json.String name);
      ("seconds", Json.Float seconds);
      ("queries", Json.Int (assoc name report.phase_queries));
      ("retries", Json.Int (assoc name report.phase_retries));
    ]
  in
  let phases =
    List.map
      (fun (name, seconds) -> Json.Obj (phase name seconds @ gc_fields name))
      report.phase_times
    @
    if List.mem_assoc "other" report.phase_queries then
      [ Json.Obj (phase "other" 0.0) ]
    else []
  in
  let outputs =
    List.map
      (fun r ->
        Json.Obj
          [
            ("name", Json.String r.output_name);
            ("method", Json.String (method_to_string r.method_used));
            ("support", Json.Int r.support_size);
            ("cubes", Json.Int r.cubes);
            ("used_offset", Json.Bool r.used_offset);
            ("complete", Json.Bool r.complete);
            ("compressed", Json.Bool r.compressed);
          ])
      report.outputs
  in
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    ([
       ("schema", Json.String "lr-run-report/v1");
      ("case", Json.String case);
      ("seed", Json.Int seed);
      ("inputs", Json.Int (N.num_inputs c));
      ("outputs", Json.Int (N.num_outputs c));
      ("size", Json.Int (N.size c));
      ("inverters", Json.Int stats.N.inverters);
      ("depth", Json.Int stats.N.depth);
      ("queries", Json.Int report.queries);
      ("elapsed_s", Json.Float report.elapsed_s);
      ("accuracy", opt (fun a -> Json.Float a) accuracy);
      ("eval_patterns", Json.Int eval_patterns);
      ("time_budget_s", opt (fun b -> Json.Float b) time_budget_s);
      ("budget_exceeded", Json.Bool report.budget_exceeded);
      ("query_budget_exceeded", Json.Bool report.query_budget_exceeded);
      ("faults", opt (fun s -> Json.String (Faults.to_string s)) faults);
      ( "faults_seen",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) report.faults_seen)
      );
      ("retries", Json.Int report.retries);
      ("degraded", Json.Int report.degraded);
      ("check_level", Json.String (Config.check_level_string report.check_level));
      ("checks_verified", Json.Int report.checks_verified);
      ("sweep_removed", Json.Int report.sweep_removed);
      ("lint_findings", Json.List (List.map Finding.json report.lint_findings));
      ("query_latency", Histogram.summary_to_json report.query_latency);
      ("jobs", Json.Int report.jobs);
      ( "domains",
        Json.List
          (List.map
             (fun (d, phases) ->
               Json.Obj
                 [
                   ("domain", Json.Int d);
                   ( "phases",
                     Json.Obj
                       (List.map (fun (n, s) -> (n, Json.Float s)) phases) );
                 ])
             report.domain_times) );
      ("phases", Json.List phases);
      ("outputs_detail", Json.List outputs);
    ]
    @ extra)

(* representative (lhs, rhs) vector values realising the predicate value:
   [reps op] = ((x_false, y_false), (x_true, y_true)) *)
let delegate_reps : T.op -> (int * int) * (int * int) = function
  | `Eq -> ((0, 1), (0, 0))
  | `Ne -> ((0, 0), (0, 1))
  | `Lt -> ((0, 0), (0, 1))
  | `Le -> ((1, 0), (0, 0))
  | `Gt -> ((0, 0), (1, 0))
  | `Ge -> ((0, 1), (0, 0))

(* Virtual input domain for one output: optionally one delegate input
   standing for a compressed comparator. *)
type domain = {
  arity : int;
  compressed_bits : int list;  (** PI indices replaced by the delegate *)
  delegate : (T.comparator * int) option;  (** match + virtual index *)
}

let plain_domain ni = { arity = ni; compressed_bits = []; delegate = None }

let compressed_domain ni cmp =
  let rhs_bits =
    match cmp.T.rhs with
    | T.Vec v -> Array.to_list v.G.bits
    | T.Const _ -> []
  in
  {
    arity = ni + 1;
    compressed_bits = Array.to_list cmp.T.lhs.G.bits @ rhs_bits;
    delegate = Some (cmp, ni);
  }

(* Translate virtual assignments, as lane words, into full black-box
   assignments: each compressed bit's word is the delegate word, its
   complement or a constant, per the representative values. *)
let to_full_words ni dom vw =
  let full = Array.sub vw 0 ni in
  (match dom.delegate with
  | None -> ()
  | Some (cmp, dvar) ->
      let dv = vw.(dvar) in
      let (xf, yf), (xt, yt) = delegate_reps cmp.T.cmp_op in
      let set (v : G.vector) vf vt =
        Array.iteri
          (fun k s ->
            full.(s) <-
              (match ((vf lsr k) land 1 = 1, (vt lsr k) land 1 = 1) with
              | false, false -> 0L
              | true, true -> -1L
              | false, true -> dv
              | true, false -> Int64.lognot dv))
          v.G.bits
      in
      set cmp.T.lhs xf xt;
      match cmp.T.rhs with T.Vec v -> set v yf yt | T.Const _ -> ());
  full

(* The full inputs a toggle of virtual input [v] complements: those
   whose word follows [v]'s under [to_full_words]. A delegate's are the
   compressed bits whose representative values differ; a compressed
   bit's own word is overridden, so its toggle complements nothing. *)
let toggle_set ni dom v =
  let full d =
    to_full_words ni dom
      (Array.init dom.arity (fun u -> if u = v then d else 0L))
  in
  let lo = full 0L and hi = full (-1L) in
  Array.of_list (List.filter (fun s -> lo.(s) <> hi.(s)) (List.init ni Fun.id))

(* A plain domain is the box's own input space: its blocks go to the
   box as they are, with no copy, and each virtual input toggles
   itself. *)
let oracle_for box dom ~output =
  let ni = Box.num_inputs box in
  match dom.delegate with
  | None -> Oracle.of_box ~arity:dom.arity box ~output
  | Some _ ->
      Oracle.of_box ~to_full:(to_full_words ni dom)
        ~toggles:(Array.init dom.arity (toggle_set ni dom))
        ~arity:dom.arity box ~output

(* A truncated tree on an unlearnable function can emit a huge cover;
   adjacency merging is near-linear, but above this size even building the
   merged SOP as a circuit is pointless, so fall back to deduplication. *)
let merge_bounded cover =
  if Cover.num_cubes cover > 50_000 then Cover.dedup cover
  else Cover.merge_pass cover

(* Two-level minimization of the chosen cover against its complement.
   Moderate covers go through BDD collapse + ISOP (the paper's heavy
   'collapse' step); bigger ones only get the cheap adjacency merging. *)
let minimize_cover ~arity ~chosen ~other =
  let cheap = merge_bounded chosen in
  if
    Cover.num_cubes cheap <= 1024
    && Cover.num_literals cheap <= 12_000
    && arity <= 512
  then begin
    let man = Bdd.man ~nvars:arity in
    let lower = Bdd.of_cover man cheap in
    let upper = Bdd.not_ man (Bdd.of_cover man (merge_bounded other)) in
    (* covers from a decision tree partition the space, but a truncated
       tree may leave overlap; guard by intersecting bounds *)
    let lower = Bdd.and_ man lower upper in
    let budget = max 2048 (2 * Cover.num_cubes cheap) in
    let minimized =
      match Bdd.isop_bounded man ~max_cubes:budget ~lower ~upper with
      | Some isop
        when Cover.num_cubes isop < Cover.num_cubes cheap
             || Cover.num_literals isop < Cover.num_literals cheap ->
          isop
      | Some _ | None -> cheap
    in
    Bdd.record_counters man;
    minimized
  end
  else cheap

(* What a conquer task hands back for circuit construction. Tasks run on
   worker domains and must not touch the (unsynchronised) netlist
   builder, so they return pure data: either a cover to synthesise as an
   SOP, or the learned function's BDD serialised as a mux DAG. All node
   creation then happens on the calling domain, in output order — the
   netlist is identical however many domains did the learning. *)
type build_plan =
  | Build_sop of { cover : Lr_cube.Cover.t; complemented : bool }
  | Build_mux of { muxes : (int * int * int) array; root : int }
      (** [(var, low, high)] rows, children before parents; [low]/[high]
          and [root] index earlier rows, or [-1] = const false,
          [-2] = const true *)

(* Serialise a BDD as a mux DAG — the compact fallback when a function
   (parity-like) has a small BDD but an exponential SOP. Deterministic
   DFS, low child before high. *)
let serialize_mux man root =
  let memo = Hashtbl.create 64 in
  let rev_rows = ref [] in
  let count = ref 0 in
  let rec go b =
    match Bdd.is_const man b with
    | Some false -> -1
    | Some true -> -2
    | None -> (
        let id = Bdd.node_id b in
        match Hashtbl.find_opt memo id with
        | Some i -> i
        | None ->
            let v =
              match Bdd.top_var man b with Some v -> v | None -> assert false
            in
            let lo = go (Bdd.low man b) in
            let hi = go (Bdd.high man b) in
            let i = !count in
            incr count;
            rev_rows := (v, lo, hi) :: !rev_rows;
            Hashtbl.add memo id i;
            i)
  in
  let root = go root in
  (Array.of_list (List.rev !rev_rows), root)

let build_mux circuit vars muxes root =
  let built = Array.make (Array.length muxes) (N.const_false circuit) in
  let resolve i =
    if i = -1 then N.const_false circuit
    else if i = -2 then N.const_true circuit
    else built.(i)
  in
  Array.iteri
    (fun i (v, lo, hi) ->
      built.(i) <-
        B.mux circuit ~sel:vars.(v) ~then_:(resolve hi) ~else_:(resolve lo))
    muxes;
  resolve root

(* What the fbdt phase learned about one output. *)
type learned =
  | Table of bool array
      (** the exhaustive conquest's truth table over the support *)
  | Tree of Fbdt.result
  | Gave_up  (** retries spent: built as constant false *)

(* Everything a conquer task learns about one output, minus the circuit
   nodes themselves. *)
type conquered = {
  c_dom : domain;
  c_support : int list;
  c_learned : learned;
  c_plan : build_plan;
  c_cubes : int;
  c_use_offset : bool;
  c_check_cover : Cover.t option;
  c_phases : (string * float * Gcstat.t) list;  (** occurrence order *)
  c_snapshot : Instr.snapshot;
}

let learn ?(config = Config.default) box =
  let t0 = Instr.now () in
  (* arm the box's chaos hooks before the first query: key [-1] is the
     shared divide-phase stream, per-output streams are derived at shard
     time. The retry policy is installed even on a reliable box so a
     caller-armed box still retries. *)
  (match config.Config.faults with
  | Some spec -> Box.set_faults box ~key:(-1) (Some spec)
  | None -> ());
  Box.set_retry box config.Config.retry;
  let master_rng = Rng.create config.Config.seed in
  let template_rng = Rng.split master_rng in
  let support_rng = Rng.split master_rng in
  let tree_rng = Rng.split master_rng in
  let opt_rng = Rng.split master_rng in
  (* split unconditionally — the earlier streams stay identical whether or
     not checking is on, so checked and unchecked runs learn the same
     circuit *)
  let check_rng = Rng.split master_rng in
  (* likewise split unconditionally, after every pre-existing stream, so
     runs with the sweep off are bit-identical to builds without it *)
  let sweep_rng = Rng.split master_rng in
  let checks_verified = ref 0 in
  let full_check = config.Config.check_level = Config.Full in
  let ni = Box.num_inputs box and no = Box.num_outputs box in
  let circuit =
    N.create ~input_names:(Box.input_names box)
      ~output_names:(Box.output_names box)
  in
  let pi = Array.init ni (N.input circuit) in
  let vec_nodes v = Array.map (fun s -> pi.(s)) v.G.bits in
  (* per-phase wall-clock and GC accumulators: a phase span may run many
     times (once per remaining output for fbdt/cover-min); the report
     sums them. GC counters are sampled at the span boundaries
     ([Gc.quick_stat], no heap walk) and the heap-size gauge is emitted
     so traces show memory alongside time. *)
  let phase_time = Hashtbl.create 8 in
  let phase_gc = Hashtbl.create 8 in
  List.iter
    (fun n ->
      Hashtbl.replace phase_time n 0.0;
      Hashtbl.replace phase_gc n Gcstat.zero)
    phase_names;
  let phase name f =
    let g0 = Gcstat.sample () in
    let r, dt = Instr.timed_span ~name f in
    let d = Gcstat.diff (Gcstat.sample ()) g0 in
    Hashtbl.replace phase_time name (Hashtbl.find phase_time name +. dt);
    Hashtbl.replace phase_gc name (Gcstat.add (Hashtbl.find phase_gc name) d);
    Instr.gauge "gc.heap_words" (float_of_int d.Gcstat.heap_words);
    r
  in
  (* contest-style wall-clock budget: checked between phases and between
     per-output iterations (never mid-phase), so one check's worth of
     work can still finish after the deadline but no new work starts *)
  let budget_hit = ref false in
  let over_budget () =
    !budget_hit
    ||
    match config.Config.time_budget_s with
    | Some b when Instr.now () -. t0 >= b ->
        budget_hit := true;
        true
    | _ -> false
  in
  Instr.span ~name:"learn" @@ fun () ->
  Instr.gauge "learn.outputs" (float_of_int no);
  (* ---- steps 1 & 2: grouping + template matching ---- *)
  let matches =
    if over_budget () then None
    else
      phase "templates" (fun () ->
        if config.Config.use_templates then
          (* an unretryable fault mid-scan degrades to "no templates": every
             output falls through to the generic conquer path, and the
             event log counts the fallback *)
          try
            Some
              (T.scan ~samples:config.Config.template_samples
                 ~prop_cubes:config.Config.template_prop_cubes
                 ~rng:template_rng box)
          with Faults.Query_failed _ ->
            Instr.count "templates.fallback" 1;
            None
        else None)
  in
  let reports = ref [] in
  let handled = Hashtbl.create 16 in
  let out_names = Box.output_names box in
  (match matches with
  | None -> ()
  | Some m ->
      List.iter
        (fun l ->
          let width = Array.length l.T.z.G.bits in
          let terms =
            List.map (fun (a, v) -> (a, vec_nodes v)) l.T.terms
          in
          let sum = B.linear_combination circuit ~width terms l.T.offset in
          Array.iteri
            (fun k po ->
              N.set_output circuit po sum.(k);
              Hashtbl.replace handled po ();
              reports :=
                {
                  output = po;
                  output_name = out_names.(po);
                  method_used = Linear_template;
                  support_size = 0;
                  cubes = 0;
                  used_offset = false;
                  complete = true;
                  compressed = false;
                }
                :: !reports)
            l.T.z.G.bits)
        m.T.linears;
      let template_report method_used po =
        {
          output = po;
          output_name = out_names.(po);
          method_used;
          support_size = 0;
          cubes = 0;
          used_offset = false;
          complete = true;
          compressed = false;
        }
      in
      List.iter
        (fun b ->
          let lhs = vec_nodes b.T.blhs in
          let bits =
            match b.T.brhs with
            | None -> Array.map (N.not_ circuit) lhs
            | Some rhs ->
                let rhs = vec_nodes rhs in
                let gate =
                  match b.T.bop with
                  | T.Band -> N.and_
                  | T.Bor -> N.or_
                  | T.Bxor -> N.xor_
                  | T.Bxnor -> N.xnor_
                  | T.Bnot -> fun c x _ -> N.not_ c x
                in
                Array.mapi (fun i l -> gate circuit l rhs.(i)) lhs
          in
          Array.iteri
            (fun k po ->
              N.set_output circuit po bits.(k);
              Hashtbl.replace handled po ();
              reports := template_report Bitwise_template po :: !reports)
            b.T.bz.G.bits)
        m.T.bitwises;
      List.iter
        (fun s ->
          let src = vec_nodes s.T.src in
          let w = Array.length src in
          Array.iteri
            (fun k po ->
              let j = k + s.T.amount in
              let bit =
                if s.T.rotate then src.(j mod w)
                else if j < w then src.(j)
                else N.const_false circuit
              in
              N.set_output circuit po bit;
              Hashtbl.replace handled po ();
              reports := template_report Shift_template po :: !reports)
            s.T.sz.G.bits)
        m.T.shifts;
      List.iter
        (fun c ->
          match c.T.prop_cube with
          | Some _ -> () (* input compression, handled below *)
          | None ->
              let lhs = vec_nodes c.T.lhs in
              let node =
                match c.T.rhs with
                | T.Vec v -> B.compare_op circuit c.T.cmp_op lhs (vec_nodes v)
                | T.Const k -> B.compare_const circuit c.T.cmp_op lhs k
              in
              N.set_output circuit c.T.po node;
              Hashtbl.replace handled c.T.po ();
              reports :=
                {
                  output = c.T.po;
                  output_name = out_names.(c.T.po);
                  method_used = Comparator_template;
                  support_size = 0;
                  cubes = 0;
                  used_offset = false;
                  complete = true;
                  compressed = false;
                }
                :: !reports)
        m.T.comparators);
  let remaining =
    List.init no Fun.id |> List.filter (fun o -> not (Hashtbl.mem handled o))
  in
  (* ---- step 3: support identification, one pass for all outputs ---- *)
  let support_failed = ref false in
  let stats =
    if remaining = [] || over_budget () then None
    else
      phase "support-id" (fun () ->
          try
            Some
              (Ps.run ~rounds:config.Config.support_rounds ~rng:support_rng box
                 ~constraint_:(Cube.top ni) ())
          with Faults.Query_failed _ ->
            (* support stats serve every remaining output: an unretryable
               fault here degrades them all, best-effort constants *)
            support_failed := true;
            None)
  in
  (* an output skipped because the wall-clock budget ran out — or
     abandoned to a failing oracle — still gets a (constant) circuit: the
     report's method is the visible trace of the skip *)
  let skip_output method_used po =
    Instr.count
      (if method_used = Degraded_fault then "learn.degraded"
       else "learn.skipped")
      1;
    N.set_output circuit po (N.const_false circuit);
    reports :=
      {
        output = po;
        output_name = out_names.(po);
        method_used;
        support_size = 0;
        cubes = 0;
        used_offset = false;
        complete = false;
        compressed = false;
      }
      :: !reports
  in
  (* ---- step 4: per-output conquer (parallel) + sequential merge ----
     Each remaining output is a self-contained task: its own RNG stream
     (split off [tree_rng] keyed by the output index, so streams do not
     depend on scheduling), its own accounting shard of the black box
     with a deterministic slice of the remaining query budget, and its
     own instrumentation context (captured, then replayed into the
     parent trace at merge time). Tasks never touch the netlist: they
     return a {!build_plan}, and all circuit construction — plus
     full-check verification, which consumes the shared [check_rng] —
     happens afterwards on the calling domain, in output order. With
     [jobs = 1] the same closures run inline in the same order, which is
     what makes [--jobs n] bit-identical to [--jobs 1]. *)
  let jobs =
    if config.Config.jobs <= 0 then Par.default_jobs () else config.Config.jobs
  in
  let domain_time = Array.init jobs (fun _ -> Hashtbl.create 4) in
  let conquer_output stats shard po =
    let raw_support = Ps.support stats ~output:po in
    let compression =
      match matches with
      | None -> None
      | Some m ->
          List.find_opt
            (fun c -> c.T.po = po && c.T.prop_cube <> None)
            m.T.comparators
    in
    let dom =
      match compression with
      | None -> plain_domain ni
      | Some cmp -> compressed_domain ni cmp
    in
    let support =
      let kept =
        List.filter (fun v -> not (List.mem v dom.compressed_bits)) raw_support
      in
      match dom.delegate with
      | None -> kept
      | Some (_, dvar) -> kept @ [ dvar ]
    in
    let rng = Rng.split_keyed tree_rng po in
    let oracle = oracle_for shard dom ~output:po in
    let phases = ref [] in
    let phase name f =
      let g0 = Gcstat.sample () in
      let r, dt = Instr.timed_span ~name f in
      let d = Gcstat.diff (Gcstat.sample ()) g0 in
      phases := (name, dt, d) :: !phases;
      Instr.gauge "gc.heap_words" (float_of_int d.Gcstat.heap_words);
      r
    in
    let learned, truth_ratio =
      phase "fbdt" @@ fun () ->
      try
        if List.length support <= config.Config.small_support_threshold then
          let table, ratio = Fbdt.learn_exhaustive ~support oracle in
          (Table table, ratio)
        else begin
          let fcfg =
            {
              Fbdt.node_rounds = config.Config.node_rounds;
              biases = Ps.default_biases;
              leaf_epsilon = config.Config.leaf_epsilon;
              max_nodes = config.Config.max_tree_nodes;
            }
          in
          let result = Fbdt.learn ~support fcfg ~rng oracle in
          (Tree result, result.Fbdt.truth_ratio)
        end
      with Faults.Query_failed _ ->
        (* retries spent mid-learning: give this output up as a constant
           and let the siblings proceed — the parallel analogue of
           [Skipped_budget], charged to the oracle instead of the clock *)
        Instr.count "learn.degraded" 1;
        (Gave_up, 0.0)
    in
    let use_offset =
      config.Config.use_onset_offset && truth_ratio > 0.5
    in
    let plan, cubes_built, check_cover =
      match learned with
      | Gave_up ->
          (* best-effort constant false; nothing to minimize or check *)
          (Build_mux { muxes = [||]; root = -1 }, 0, None)
      | Table table ->
          phase "cover-min" @@ fun () ->
          (* exhaustive conquest: collapse the exact truth table to a BDD
             and pick the cheaper of its irredundant SOP and its mux
             network (parity-like functions have tiny BDDs but
             exponential SOPs) *)
          let man = Bdd.man ~nvars:dom.arity in
          let f =
            Bdd.of_truth_table man ~vars:(Array.of_list support) (fun i ->
                table.(i))
          in
          let target = if use_offset then Bdd.not_ man f else f in
          let mux_cost = 3 * Bdd.size man f in
          let built =
            match
              Bdd.isop_bounded man ~max_cubes:(max 512 mux_cost)
                ~lower:target ~upper:target
            with
            | Some cover
              when Cover.num_literals cover + Cover.num_cubes cover
                   <= mux_cost ->
                ( Build_sop { cover; complemented = use_offset },
                  Cover.num_cubes cover,
                  None )
            | Some _ | None ->
                let muxes, root = serialize_mux man f in
                (Build_mux { muxes; root }, 0, None)
          in
          Bdd.record_counters man;
          built
      | Tree result ->
          phase "cover-min" @@ fun () ->
          let chosen, other =
            if use_offset then (result.Fbdt.offset, result.Fbdt.onset)
            else (result.Fbdt.onset, result.Fbdt.offset)
          in
          let cover =
            if config.Config.minimize_cover then
              minimize_cover ~arity:dom.arity ~chosen ~other
            else merge_bounded chosen
          in
          ( Build_sop { cover; complemented = use_offset },
            Cover.num_cubes cover,
            Some cover )
    in
    Instr.count "cover.cubes" cubes_built;
    {
      c_dom = dom;
      c_support = support;
      c_learned = learned;
      c_plan = plan;
      c_cubes = cubes_built;
      c_use_offset = use_offset;
      c_check_cover = check_cover;
      c_phases = List.rev !phases;
      c_snapshot = Instr.empty_snapshot;
    }
  in
  (match remaining with
  | [] -> ()
  | _ when over_budget () || stats = None ->
      List.iter
        (skip_output
           (if !support_failed then Degraded_fault else Skipped_budget))
        remaining
  | _ ->
      let stats = Option.get stats in
      let n_tasks = List.length remaining in
      (* deterministic budget split: each task gets an equal slice of
         whatever query budget is left, independent of scheduling — the
         sequential first-come-first-served draw would make exhaustion
         depend on completion order *)
      let slice =
        match Box.budget box with
        | None -> fun _ -> None
        | Some b ->
            let left = max 0 (b - Box.queries_used box) in
            let each = left / n_tasks and extra = left mod n_tasks in
            fun i -> Some (each + if i < extra then 1 else 0)
      in
      let tasks =
        Array.of_list
          (List.mapi
             (fun i po -> (po, Box.shard ?budget:(slice i) ~fault_key:po box))
             remaining)
      in
      (* capture each task's telemetry for the ordered replay below only
         when this domain records: decided here, not in the tasks, so a
         worker domain's empty context cannot change the stream *)
      let recording = Instr.recording () in
      let results, workers =
        Par.with_pool ~jobs (fun pool ->
            Par.map_workers
              ~labels:(fun i -> "po:" ^ out_names.(fst tasks.(i)))
              pool
              (fun (po, shard) ->
                if not recording then conquer_output stats shard po
                else
                  let c, snap =
                    Instr.collect (fun () -> conquer_output stats shard po)
                  in
                  { c with c_snapshot = snap })
              tasks)
      in
      (* merge, in output order: fold the shard accounting and captured
         telemetry back, build the circuit cone, check it *)
      Array.iteri
        (fun i c ->
          let po, shard = tasks.(i) in
          Box.absorb box shard;
          Instr.span ~name:("po:" ^ out_names.(po)) @@ fun () ->
          Instr.absorb c.c_snapshot;
          let dh = domain_time.(workers.(i)) in
          List.iter
            (fun (name, dt, d) ->
              Hashtbl.replace phase_time name
                (Hashtbl.find phase_time name +. dt);
              Hashtbl.replace phase_gc name
                (Gcstat.add (Hashtbl.find phase_gc name) d);
              Hashtbl.replace dh name
                (Option.value ~default:0. (Hashtbl.find_opt dh name) +. dt))
            c.c_phases;
          let dom = c.c_dom in
          (* virtual variable -> circuit node (delegates become their
             comparator subcircuit: the input-compression payoff) *)
          let vars, node =
            (* merge-time synthesis of the planned cone, under its own
               span so profiler attribution separates it from the
               replayed worker time *)
            Instr.span ~name:"build" @@ fun () ->
            let vars =
              Array.init dom.arity (fun v ->
                  if v < ni then pi.(v)
                  else
                    match dom.delegate with
                    | Some (cmp, _) ->
                        let lhs = vec_nodes cmp.T.lhs in
                        (match cmp.T.rhs with
                        | T.Vec vec ->
                            B.compare_op circuit cmp.T.cmp_op lhs
                              (vec_nodes vec)
                        | T.Const k ->
                            B.compare_const circuit cmp.T.cmp_op lhs k)
                    | None -> assert false)
            in
            let node =
              match c.c_plan with
              | Build_sop { cover; complemented } ->
                  let n = B.sop circuit vars cover in
                  if complemented then N.not_ circuit n else n
              | Build_mux { muxes; root } -> build_mux circuit vars muxes root
            in
            (vars, node)
          in
          N.set_output circuit po node;
          (* checked mode: prove the synthesised cone against what the
             FBDT phase actually learned, before optimization can blur
             the trail *)
          (if full_check then
             match c.c_learned with
             | Table table ->
                 let support_arr = Array.of_list c.c_support in
                 phase "check" (fun () ->
                     Selfcheck.verify_table ~stage:"cover-min" ~circuit
                       ~output:po
                       ~bits:(Array.length support_arr)
                       ~to_full:(fun m ->
                         let vw = Array.make dom.arity 0L in
                         Array.iteri
                           (fun j v -> if (m lsr j) land 1 = 1 then vw.(v) <- 1L)
                           support_arr;
                         (Bv.of_lanes 1 (to_full_words ni dom vw)).(0))
                       ~expected:(fun m -> table.(m))
                       ());
                 incr checks_verified
             | Tree _ | Gave_up -> (
                 match c.c_check_cover with
                 | Some cover ->
                     phase "check" (fun () ->
                         Selfcheck.verify_cover ~stage:"cover-min"
                           ~rng:check_rng ~circuit ~output:po ~vars ~cover
                           ~complemented:c.c_use_offset ());
                     incr checks_verified
                 | None -> ()));
          reports :=
            {
              output = po;
              output_name = out_names.(po);
              method_used =
                (match c.c_learned with
                | Table _ -> Exhaustive
                | Tree _ -> Decision_tree
                | Gave_up -> Degraded_fault);
              support_size = List.length c.c_support;
              cubes = c.c_cubes;
              used_offset = c.c_use_offset;
              complete =
                (match c.c_learned with
                | Table _ -> true
                | Tree r -> r.Fbdt.complete
                | Gave_up -> false);
              compressed = dom.delegate <> None;
            }
            :: !reports)
        results);
  (* ---- step 5: circuit optimization ---- *)
  let circuit =
    if over_budget () then circuit
    else begin
      (* checked mode: CEC after every optimization sub-pass, localising a
         broken rewrite to the exact stage that introduced it *)
      let verify_pass ~stage before after =
        phase "check" (fun () ->
            Selfcheck.verify_aigs ~stage ~rng:check_rng before after);
        incr checks_verified
      in
      let optimized =
        phase "aig-opt" (fun () ->
          if config.Config.optimize then begin
            let aig = Aig.of_netlist circuit in
            let aig =
              (* fraig's SAT sweeping is super-linear; on the enormous
                 netlists a budget-truncated tree produces, restrict to the
                 linear local rewrite *)
              if Aig.num_ands aig > 25_000 then begin
                let rewritten = Opt.rewrite aig in
                if full_check then
                  verify_pass ~stage:"aig.rewrite" aig rewritten;
                rewritten
              end
              else
                Opt.compress ~max_rounds:config.Config.optimize_rounds
                  ~fraig_words:config.Config.fraig_words
                  ?verify:(if full_check then Some verify_pass else None)
                  ~rng:opt_rng aig
            in
            Aig.to_netlist ~input_names:(Box.input_names box)
              ~output_names:(Box.output_names box) aig
          end
          else circuit)
      in
      (* ... and once end-to-end, which also covers the netlist<->AIG
         conversions the per-pass hook cannot see *)
      if full_check && config.Config.optimize then begin
        phase "check" (fun () ->
            Selfcheck.verify_netlists ~stage:"aig-opt" ~rng:check_rng circuit
              optimized);
        incr checks_verified
      end;
      optimized
    end
  in
  (* ---- dataflow sweep: verified redundancy removal on the netlist ----
     Runs on the calling domain after the conquer merge, so any [jobs]
     level sees the same input netlist and the result stays bit-identical;
     the analysis itself issues no black-box queries. *)
  let sweep_removed = ref 0 in
  let circuit =
    if config.Config.sweep = Config.Sweep_off || over_budget () then circuit
    else begin
      let verify_stage ~stage before after =
        phase "check" (fun () ->
            Selfcheck.verify_netlists ~stage ~rng:check_rng before after);
        incr checks_verified
      in
      let swept, st =
        phase "sweep" (fun () ->
            Sweep.run
              ?verify:(if full_check then Some verify_stage else None)
              ~rng:sweep_rng circuit)
      in
      sweep_removed := Sweep.removed st;
      (* end-to-end, covering stage composition *)
      if full_check && Sweep.removed st > 0 then begin
        phase "check" (fun () ->
            Selfcheck.verify_netlists ~stage:"sweep" ~rng:check_rng circuit
              swept);
        incr checks_verified
      end;
      swept
    end
  in
  (* structural lint of the final circuit (Structural and Full) *)
  let lint_findings =
    if config.Config.check_level = Config.Off then []
    else phase "check" (fun () -> Lint.netlist circuit)
  in
  let phase_times =
    List.map (fun n -> (n, Hashtbl.find phase_time n)) phase_names
  in
  (* attribution key is the innermost span name at query time, which for
     every query the pipeline issues is one of the phase spans; anything
     else (a caller's own probing) lands in "other" so the totals always
     sum to the box's counter. Retries share the same keying. *)
  let fold_phases by_span =
    let known =
      List.map
        (fun n ->
          (n, match List.assoc_opt n by_span with Some q -> q | None -> 0))
        phase_names
    in
    let other =
      List.fold_left
        (fun acc (k, q) -> if List.mem k phase_names then acc else acc + q)
        0 by_span
    in
    known @ [ ("other", other) ]
  in
  let phase_queries = fold_phases (Box.queries_by_span box) in
  let phase_retries = fold_phases (Box.retries_by_span box) in
  let phase_gc =
    List.map (fun n -> (n, Hashtbl.find phase_gc n)) phase_names
  in
  let domain_times =
    Array.to_list
      (Array.mapi
         (fun d h ->
           ( d,
             List.filter_map
               (fun n -> Option.map (fun t -> (n, t)) (Hashtbl.find_opt h n))
               phase_names ))
         domain_time)
  in
  let outputs = List.sort (fun a b -> compare a.output b.output) !reports in
  let degraded_count =
    List.length (List.filter (fun r -> r.method_used = Degraded_fault) outputs)
  in
  {
    circuit;
    outputs;
    queries = Box.queries_used box;
    elapsed_s = Instr.now () -. t0;
    matches;
    phase_times;
    phase_queries;
    phase_gc;
    query_latency = Histogram.summarize (Box.query_latency box);
    retries = Box.retries_used box;
    phase_retries;
    faults_seen = Box.faults_seen box;
    degraded = degraded_count;
    budget_exceeded = !budget_hit;
    query_budget_exceeded =
      (match Box.budget box with
      | Some b -> Box.queries_used box > b
      | None -> false);
    check_level = config.Config.check_level;
    checks_verified = !checks_verified;
    sweep_removed = !sweep_removed;
    lint_findings;
    jobs;
    domain_times;
  }
