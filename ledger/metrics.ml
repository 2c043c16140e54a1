(* Every metric the ledger emits, with the computation behind it. The
   names and units here must match BENCHMARK.json; the test suite checks
   that they do. *)

module Profile = Lr_prof.Profile
open Manifest

type end_to_end = {
  e_name : string;
  e_unit : string;
  e_better : better;
  exact : bool;
      (** repeats exactly for one seed, so [diff] rules any change real *)
  samples : Runner.result -> float list;
      (** one sample per timed rep (per set-up sample for [setup_s]) *)
}

let per_rep f (r : Runner.result) = List.map f r.Runner.reps
let case_sum f (rep : Runner.rep) = Runner.sum f rep.Runner.runs

let case_mean f (rep : Runner.rep) =
  case_sum f rep /. float_of_int (max 1 (List.length rep.Runner.runs))

let end_to_end =
  let m ?(exact = false) e_name e_unit e_better samples =
    { e_name; e_unit; e_better; exact; samples }
  in
  [
    m "learn_s" "s" Lower (per_rep Runner.rep_learn_s);
    m "score_s" "s" Lower (per_rep Runner.rep_score_s);
    m "setup_s" "s" Lower (fun r -> r.Runner.setup);
    m "peak_heap_mb" "MB" Lower (fun r -> [ r.Runner.peak_heap_mb ]);
    m ~exact:true "gates" "count" Lower
      (per_rep (case_sum (fun c -> float_of_int c.Runner.gates)));
    m ~exact:true "accuracy_pct" "%" Higher
      (per_rep (case_mean (fun c -> c.Runner.outcome.Workloads.accuracy_pct)));
    m ~exact:true "queries" "count" Lower
      (per_rep (case_sum (fun c -> float_of_int c.Runner.queries)));
  ]

let is_exact name = List.exists (fun m -> m.e_name = name && m.exact) end_to_end

(* ---- per-layer metrics, mostly read off the traced rep's profile ---- *)

type per_layer = {
  l_name : string;
  l_unit : string;
  l_better : better;
  value : Runner.result -> Runner.traced -> float;
}

let segments (n : Profile.node) = String.split_on_char '/' n.Profile.path

(* the node lies in a subtree rooted at a span called [name] *)
let under name n = List.mem name (segments n)
let in_learn n = under "bench.learn" n
let in_phase name n = in_learn n && under name n && not (under "check" n)

(* profile seconds, scaled like every other time by the traced rep's
   host-speed factor *)
let self_s (t : Runner.traced) pred =
  Runner.rep_speed t.Runner.rep
  *. List.fold_left
       (fun a (n : Profile.node) -> if pred n then a +. n.Profile.self_s else a)
       0.0 t.Runner.profile.Profile.nodes

let counter (t : Runner.traced) name pred =
  List.fold_left
    (fun a (n : Profile.node) ->
      match List.assoc_opt name n.Profile.counters with
      | Some v when pred n -> a +. float_of_int v
      | _ -> a)
    0.0 t.Runner.profile.Profile.nodes

let total_s (t : Runner.traced) pred =
  Runner.rep_speed t.Runner.rep
  *. List.fold_left
       (fun a (n : Profile.node) -> if pred n then a +. n.Profile.total_s else a)
       0.0 t.Runner.profile.Profile.nodes

(* the learner's phases: the direct children of its [learn] span *)
let is_phase (n : Profile.node) =
  match segments n with [ "bench.learn"; "learn"; _ ] -> true | _ -> false

let traced_learn_s t = total_s t (fun n -> n.Profile.path = "bench.learn")
let unattributed_s t = traced_learn_s t -. total_s t is_phase

let attributed_pct t =
  let learn = traced_learn_s t in
  if learn <= 0.0 then 0.0 else 100.0 *. total_s t is_phase /. learn

let median_rep f (r : Runner.result) = Stats.median (per_rep f r)

let provider_s =
  median_rep (case_sum (fun c -> c.Runner.speed *. c.Runner.provider_s))

let queries = median_rep (case_sum (fun c -> float_of_int c.Runner.queries))

let conquer_self_s t =
  self_s t (in_phase "support-id")
  +. self_s t (in_phase "fbdt")
  +. self_s t (in_phase "templates")

let per_layer =
  let m l_name l_unit l_better value = { l_name; l_unit; l_better; value } in
  let span l_name name = m l_name "s" Lower (fun _ t -> self_s t (in_phase name)) in
  let count ?(better = Lower) l_name name =
    m l_name "count" better (fun _ t -> counter t name in_learn)
  in
  let count_in l_name name phase =
    m l_name "count" Lower (fun _ t -> counter t name (in_phase phase))
  in
  [
    (* blackbox: the oracle, from the untraced reps *)
    m "blackbox.queries" "count" Lower (fun r _ -> queries r);
    m "blackbox.provider_s" "s" Lower (fun r _ -> provider_s r);
    m "blackbox.ns_per_query" "ns" Lower (fun r _ ->
        1e9 *. provider_s r /. Float.max 1.0 (queries r));
    m "plumbing.self_s" "s" Lower (fun r t -> conquer_self_s t -. provider_s r);
    (* sampling *)
    span "sampling.self_s" "support-id";
    count_in "sampling.queries" "queries" "support-id";
    count_in "sampling.sim_gate_words" "sim.gate-words" "support-id";
    (* templates and grouping *)
    span "templates.self_s" "templates";
    count_in "templates.queries" "queries" "templates";
    (* fbdt *)
    span "fbdt.self_s" "fbdt";
    count_in "fbdt.queries" "queries" "fbdt";
    count "fbdt.nodes" "fbdt.nodes";
    (* espresso / cube / bdd *)
    span "cover-min.self_s" "cover-min";
    span "build.self_s" "build";
    count "cover.cubes" "cover.cubes";
    count "bdd.nodes" "bdd.nodes";
    (* aig *)
    span "aig-opt.self_s" "aig-opt";
    span "aig.cut-rewrite.self_s" "aig.cut-rewrite";
    span "aig.rewrite.self_s" "aig.rewrite";
    span "aig.balance.self_s" "aig.balance";
    span "fraig.sim.self_s" "fraig.sim";
    span "fraig.sat.self_s" "fraig.sat";
    count "fraig.sat-calls" "fraig.sat-calls";
    count ~better:Higher "fraig.proved" "fraig.proved";
    count ~better:Higher "aig.ands-removed" "aig.ands-removed";
    (* sat / kernel *)
    count "sat.conflicts" "sat.conflicts";
    count "kernel.portfolio-races" "kernel.portfolio-races";
    count ~better:Higher "kernel.portfolio-unsat-wins"
      "kernel.portfolio-unsat-wins";
    count ~better:Higher "kernel.sim-cached-words" "kernel.sim-cached-words";
    (* dataflow *)
    span "sweep.self_s" "sweep";
    span "sweep.odc.self_s" "sweep.odc";
    span "dataflow.sat.self_s" "dataflow.sat";
    count "dataflow.sat-calls" "dataflow.sat-calls";
    count ~better:Higher "sweep.removed" "sweep.removed";
    (* check: every check subtree, wherever it nests *)
    m "check.self_s" "s" Lower (fun _ t ->
        self_s t (fun n -> in_learn n && under "check" n));
    m "check.cec.self_s" "s" Lower (fun _ t ->
        self_s t (fun n ->
            in_learn n && (under "check.cec" n || under "check.cec-aig" n)));
    count "check.verified" "check.verified";
    (* eval *)
    m "eval.self_s" "s" Lower (fun _ t -> self_s t (under "eval.accuracy"));
    m "eval.patterns" "count" Lower (fun _ t ->
        counter t "eval.patterns" (under "bench.score"));
    (* core *)
    m "core.unattributed_s" "s" Lower (fun _ t -> unattributed_s t);
    (* OCaml GC around learn, from the untraced reps *)
    m "gc.minor_mwords" "Mword" Lower (fun r _ ->
        median_rep (case_sum (fun c -> c.Runner.minor_words /. 1e6)) r);
    m "gc.promoted_mwords" "Mword" Lower (fun r _ ->
        median_rep (case_sum (fun c -> c.Runner.promoted_words /. 1e6)) r);
    m "gc.major_collections" "count" Lower (fun r _ ->
        median_rep
          (case_sum (fun c -> float_of_int c.Runner.major_collections))
          r);
    (* instr *)
    m "instr.events" "count" Lower (fun _ t -> float_of_int t.Runner.emitted);
    m "instr.trace_overhead_pct" "%" Lower (fun r t ->
        let untraced = median_rep Runner.rep_learn_s r in
        100.0 *. (Runner.rep_learn_s t.Runner.rep -. untraced) /. untraced);
  ]
