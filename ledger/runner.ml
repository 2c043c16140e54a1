(* One workload, measured in this process: set-up samples, one discarded
   warm-up rep, timed reps for the requested number of seconds, then
   optionally one traced rep. A rep learns, scores and checks every case
   of the workload once. *)

module Rng = Lr_bitvec.Rng
module Bv = Lr_bitvec.Bv
module N = Lr_netlist.Netlist
module Box = Lr_blackbox.Blackbox
module Cases = Lr_cases.Cases
module Eval = Lr_eval.Eval
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner
module Instr = Lr_instr.Instr
module Histogram = Lr_report.Histogram
module Profile = Lr_prof.Profile

let eval_patterns = 30_000
let setup_samples = 11
let min_timed_reps = 3

type input = { spec : Cases.spec; golden : N.t; patterns : Bv.t array }

(* Everything a rep needs that does not depend on the learner: the golden
   circuit behind a fresh box, and the scoring patterns. The box built here
   is only timed; each learn gets its own box so query accounting starts
   at zero. *)
let prepare ~seed (w : Workloads.t) =
  List.mapi
    (fun i name ->
      let spec = Cases.find name in
      let golden = Cases.build spec in
      ignore (Box.of_netlist golden);
      let patterns =
        Eval.mixture
          ~rng:(Rng.create ((seed * 64) + i))
          ~num_inputs:spec.Cases.num_inputs ~count:eval_patterns
      in
      { spec; golden; patterns })
    w.Workloads.cases

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Host-speed probe. On a CPU shared with other tenants (measured on a
   2-vCPU KVM guest) speed drifts by 5-15 % between runs minutes apart and
   drops by 10-30 % for seconds at a time, which no amount of repetition
   within one run averages out. The probe is a fixed loop over a 512 KiB
   array. It calls nothing from lib/ and does not allocate, so no change
   to the program can move it. Each set-up sample and each case of a rep
   is scaled by [probe_nominal_s] over the mean of the probes just before
   and just after it, so reported times are seconds on a host that runs
   the probe in [probe_nominal_s].

   Both choices were measured on that guest. Scaling each case rather
   than each 2.6 s rep cut the spread (IQR over median) of eco-sampled's
   [learn_s] over the reps of one run from 7.3-8.6 % to 1.8-3.6 %. The
   loop runs four independent chains, so that like the learner it is
   bound by throughput rather than latency; a host that shares the core
   slows such code more. Over ten runs each, it left 2.7 / 5.0 / 4.2 %
   spread in the median rep of verified-sweep / hard-fbdt / eco-sampled,
   where the same loop with one chain left 4.0 / 9.9 / 8.0 % and no
   scaling 22 / 27 / 34 %. *)
let probe_nominal_s = 0.040
let probe_array = Array.make (1 lsl 16) 0

let probe () =
  let a = probe_array in
  let n = Array.length a in
  let x1 = ref 0x2545F491 and x2 = ref 0x1234567 in
  let x3 = ref 0x7654321 and x4 = ref 0x0F0F0F0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to (130 * n) - 1 do
    x1 := ((!x1 * 1103515245) + 12345) land 0x3FFFFFFF;
    x2 := ((!x2 * 1103515245) + 12345) land 0x3FFFFFFF;
    x3 := ((!x3 * 1103515245) + 12345) land 0x3FFFFFFF;
    x4 := ((!x4 * 1103515245) + 12345) land 0x3FFFFFFF;
    let k1 = !x1 land (n - 1) and k2 = !x2 land (n - 1) in
    let k3 = !x3 land (n - 1) and k4 = !x4 land (n - 1) in
    a.(k1) <- a.(k1) + i;
    a.(k2) <- a.(k2) lxor i;
    a.(k3) <- a.(k3) + (i lsr 1);
    a.(k4) <- a.(k4) lxor (i lsr 2)
  done;
  Unix.gettimeofday () -. t0

(* the probe after one sample is the probe before the next *)
type host = { mutable last_probe : float }

let host () = { last_probe = probe () }

(* [f ()] and the factor that scales its wall time to nominal host speed *)
let scaled host f =
  let before = host.last_probe in
  let r = f () in
  host.last_probe <- probe ();
  (r, probe_nominal_s /. ((before +. host.last_probe) /. 2.0))

type case_run = {
  outcome : Workloads.outcome;
  learn_s : float;
  score_s : float;
  provider_s : float;  (** summed black-box query latency *)
  queries : int;
  gates : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  speed : float;  (** host-speed factor for this case's wall times *)
}

type rep = {
  runs : case_run list;  (** wall times as measured *)
  failures : (string * string) list;
}

let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

let rep_learn_s r = sum (fun c -> c.speed *. c.learn_s) r.runs
let rep_score_s r = sum (fun c -> c.speed *. c.score_s) r.runs

(* one factor for the whole rep: its cases' factors weighted by the time
   each case took *)
let rep_speed r =
  let raw = sum (fun c -> c.learn_s +. c.score_s) r.runs in
  if raw = 0.0 then 1.0 else (rep_learn_s r +. rep_score_s r) /. raw

(* proven (case, digest) pairs: a learn that reproduces an already proven
   circuit needs no second proof, except in the traced rep, where the
   proof is part of what the trace shows *)
let proven : (string * string, bool) Hashtbl.t = Hashtbl.create 16

let measure_case (w : Workloads.t) ~config ~force_verify inp =
  let case = inp.spec.Cases.name in
  let box = Box.of_netlist inp.golden in
  let g0 = Gc.quick_stat () in
  let report, learn_s =
    Instr.span ~name:"bench.learn" (fun () ->
        time (fun () ->
            try Ok (Learner.learn ~config box)
            with e -> Error (Printexc.to_string e)))
  in
  let g1 = Gc.quick_stat () in
  let outcome, score_s, gates =
    match report with
    | Error e ->
        ( {
            Workloads.case;
            raised = Some e;
            degraded = 0;
            budget_exceeded = false;
            shape_ok = false;
            equivalent = None;
            accuracy_pct = 0.0;
            digest = "";
          },
          0.0,
          0 )
    | Ok r ->
        let circuit = r.Learner.circuit in
        let shape_ok =
          N.num_inputs circuit = N.num_inputs inp.golden
          && N.num_outputs circuit = N.num_outputs inp.golden
        in
        let digest =
          Digest.to_hex (Digest.string (Lr_netlist.Io.write circuit))
        in
        let accuracy, score_s =
          if not shape_ok then (0.0, 0.0)
          else
            Instr.span ~name:"bench.score" (fun () ->
                time (fun () ->
                    Eval.accuracy_on ~patterns:inp.patterns ~golden:inp.golden
                      ~candidate:circuit ()))
        in
        let equivalent =
          if not (w.Workloads.exact && shape_ok) then None
          else
            match Hashtbl.find_opt proven (case, digest) with
            | Some v when not force_verify -> Some v
            | _ ->
                let v =
                  Instr.span ~name:"bench.verify" (fun () ->
                      Lr_aig.Equiv.check inp.golden circuit
                      = Lr_aig.Equiv.Equivalent)
                in
                Hashtbl.replace proven (case, digest) v;
                Some v
        in
        ( {
            Workloads.case;
            raised = None;
            degraded = r.Learner.degraded;
            budget_exceeded = r.Learner.budget_exceeded;
            shape_ok;
            equivalent;
            accuracy_pct = 100.0 *. accuracy;
            digest;
          },
          score_s,
          N.size circuit )
  in
  {
    outcome;
    learn_s;
    score_s;
    provider_s = Histogram.sum (Box.query_latency box);
    queries = Box.queries_used box;
    gates;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    speed = 1.0 (* set by [run_case] *);
  }

let run_case w ~config ~force_verify ~host inp =
  let c, speed = scaled host (fun () -> measure_case w ~config ~force_verify inp) in
  { c with speed }

(* digest of each case's first learn, the reference later reps must
   reproduce *)
let references : (string, string) Hashtbl.t = Hashtbl.create 16

let run_rep w ~config ~force_verify ~host inputs =
  let runs = List.map (run_case w ~config ~force_verify ~host) inputs in
  let failures =
    List.filter_map
      (fun c ->
        let o = c.outcome in
        let reference = Hashtbl.find_opt references o.Workloads.case in
        if reference = None && o.Workloads.raised = None then
          Hashtbl.replace references o.Workloads.case o.Workloads.digest;
        Option.map (fun why -> (o.Workloads.case, why))
          (Workloads.failure w ~reference o))
      runs
  in
  { runs; failures }

(* An in-memory sink. Span and gauge events are kept as they arrive;
   counter events between two span events are folded into one event per
   (span path, counter), which changes no profile number and keeps a
   support-id trace (one counter event per 64-pattern batch) small. *)
type collector = {
  mutable events : Instr.event list;  (** newest first *)
  pending : (string * string, Instr.event) Hashtbl.t;
  mutable order : (string * string) list;  (** newest first *)
  mutable emitted : int;  (** events the program emitted *)
}

let collector () =
  { events = []; pending = Hashtbl.create 16; order = []; emitted = 0 }

let settle c =
  List.iter
    (fun k -> c.events <- Hashtbl.find c.pending k :: c.events)
    (List.rev c.order);
  Hashtbl.reset c.pending;
  c.order <- []

let sink c =
  let emit ev =
    c.emitted <- c.emitted + 1;
    match ev with
    | Instr.Count { name; path; ts; incr; total } ->
        let key = (path, name) in
        let folded =
          match Hashtbl.find_opt c.pending key with
          | Some (Instr.Count p) ->
              Instr.Count { p with ts; incr = p.incr + incr; total }
          | _ ->
              c.order <- key :: c.order;
              ev
        in
        Hashtbl.replace c.pending key folded
    | Instr.Span_begin _ | Instr.Span_end _ | Instr.Gauge _ ->
        settle c;
        c.events <- ev :: c.events
  in
  { Instr.emit; flush = (fun () -> settle c) }

type traced = {
  rep : rep;
  events : Instr.event list;  (** chronological *)
  emitted : int;
  profile : Profile.t;
}

let traced_rep w ~config ~seed ~host =
  let c = collector () in
  Instr.set_sinks [ sink c ];
  let inputs = Instr.span ~name:"bench.setup" (fun () -> prepare ~seed w) in
  let rep = run_rep w ~config ~force_verify:true ~host inputs in
  Instr.flush_sinks ();
  Instr.set_sinks [];
  let events = List.rev c.events in
  { rep; events; emitted = c.emitted; profile = Profile.of_events events }

type result = {
  workload : Workloads.t;
  seed : int;
  setup : float list;  (** scaled seconds per set-up sample *)
  reps : rep list;  (** the timed reps, in order *)
  peak_heap_mb : float;
  attempted : int;
  failures : (string * string) list;  (** (case, reason) per failed learn *)
  traced : traced option;
}

let run (w : Workloads.t) ~seed ~seconds ~trace =
  Hashtbl.reset proven;
  Hashtbl.reset references;
  let config = { w.Workloads.config with Config.seed } in
  let host = host () in
  let setup, inputs =
    let rec go k acc =
      let (inputs, dt), speed = scaled host (fun () -> time (fun () -> prepare ~seed w)) in
      let acc = (speed *. dt) :: acc in
      if k = 1 then (List.rev acc, inputs) else go (k - 1) acc
    in
    go setup_samples []
  in
  let rep () = run_rep w ~config ~force_verify:false ~host inputs in
  let warm = rep () in
  let t0 = Unix.gettimeofday () in
  let rec timed acc n =
    if n >= min_timed_reps && Unix.gettimeofday () -. t0 >= seconds then
      List.rev acc
    else timed (rep () :: acc) (n + 1)
  in
  let reps = timed [] 0 in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let traced = if trace then Some (traced_rep w ~config ~seed ~host) else None in
  let all_reps =
    (warm :: reps) @ match traced with Some t -> [ t.rep ] | None -> []
  in
  {
    workload = w;
    seed;
    setup;
    reps;
    peak_heap_mb;
    attempted = List.fold_left (fun a r -> a + List.length r.runs) 0 all_reps;
    failures = List.concat_map (fun (r : rep) -> r.failures) all_reps;
    traced;
  }
