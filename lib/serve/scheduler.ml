module Json = Lr_instr.Json
module Instr = Lr_instr.Instr
module Http = Lr_obs.Http
module Box = Lr_blackbox.Blackbox
module Cases = Lr_cases.Cases
module N = Lr_netlist.Netlist
module Io = Lr_netlist.Io
module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module Equiv = Lr_aig.Equiv
module Learner = Logic_regression.Learner
module Progress = Lr_prof.Progress

type state = Queued | Running | Done | Failed of string

type job = {
  id : string;
  spec : Proto.spec;
  progress : Http.ring;
  submitted_at : float;
  mutable state : state;
  mutable cache : [ `Pending | `Hit | `Miss ];
  mutable result : (string * Json.t) option;
  mutable exec_order : int;
  mutable started_at : float;
  mutable finished_at : float;
}

type refusal =
  | Overloaded of { retry_after_s : float }
  | Quota of string
  | Bad_spec of string

type t = {
  mu : Mutex.t;
  cond : Condition.t;  (** new work, job finished, shutdown *)
  queue : job Queue.t;
  mutable all : job list;  (** newest first *)
  mutable next_id : int;
  mutable next_exec : int;
  mutable in_flight : int;  (** queued + running *)
  mutable running : int;
  mutable stopping : bool;
  reserved : (string, int) Hashtbl.t;  (** tenant -> reserved queries *)
  cache : Cache.t;
  slots : int;
  queue_limit : int;
  fp_words : int;
  tenant_queries : int option;
  max_time_budget_s : float option;
  mutable workers : unit Domain.t array;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ---------- box resolution ---------- *)

let case_known (spec : Proto.spec) =
  match Cases.find spec.case with
  | _ -> true
  | exception Not_found -> Sys.file_exists spec.case

(* ---------- progress plumbing ---------- *)

let push_lines t job chunk =
  let lines = String.split_on_char '\n' chunk in
  locked t (fun () ->
      List.iter
        (fun line ->
          if line <> "" then Http.ring_push job.progress (line ^ "\n"))
        lines)

let progress_since t job since =
  locked t (fun () -> Http.ring_since job.progress since)

let progress_seq t job = locked t (fun () -> Http.ring_next_seq job.progress)

(* ---------- cache-hit verification ---------- *)

(* No reference netlist (file-less boxes): compare the cached circuit
   against the live box on a fresh probe stream — distinct from the
   fingerprint's, so a lookup is never "verified" by the very samples
   that built the key. *)
let sampled_equal box cached ~seed ~words =
  let n = Box.num_inputs box in
  match Box.of_netlist cached with
  | exception _ -> false
  | cbox ->
      let rng = Rng.create (seed lxor 0x6c725f66) in
      let patterns = Array.init (64 * words) (fun _ -> Bv.random rng n) in
      let a = Box.probe_many box patterns in
      let b = Box.probe_many cbox patterns in
      Array.for_all2 Bv.equal a b

let verify_hit box golden cached =
  N.num_inputs cached = Box.num_inputs box
  && N.num_outputs cached = Box.num_outputs box
  &&
  match golden with
  | Some g -> (
      match Equiv.check cached g with
      | Equiv.Equivalent -> true
      | Equiv.Counterexample _ -> false)
  | None -> sampled_equal box cached ~seed:0x51f1 ~words:4

(* On a hit the stored report (the original learn's) is re-stamped for
   the requesting job; everything describing the circuit stays. *)
let patch_report report ~job_id ~tenant =
  let stamp = function
    | "job_id", _ -> ("job_id", Json.String job_id)
    | "tenant", _ -> ("tenant", Json.String tenant)
    | "cache_hit", _ -> ("cache_hit", Json.Bool true)
    | kv -> kv
  in
  match report with
  | Json.Obj fields -> Json.Obj (List.map stamp fields)
  | _ ->
      Json.Obj
        [
          ("schema", Json.String "lr-run-report/v1");
          ("job_id", Json.String job_id);
          ("tenant", Json.String tenant);
          ("cache_hit", Json.Bool true);
        ]

(* ---------- job execution (on a worker domain) ---------- *)

let run_job t job =
  let spec = job.spec in
  try
    let box, golden = Cases.resolve ?budget:spec.budget spec.case in
    let fingerprint = Fingerprint.probe ~words:t.fp_words box in
    let names_sig = Fingerprint.names_signature box in
    let key =
      Cache.key ~fingerprint ~names_sig
        ~config_sig:(Proto.config_signature spec)
    in
    let hit =
      if spec.use_cache then
        Cache.lookup t.cache ~key ~verify:(verify_hit box golden)
      else None
    in
    match hit with
    | Some entry ->
        push_lines t job
          (Printf.sprintf
             {|{"schema":"lr-progress/v1","event":"cache_hit","job":"%s","key":"%s"}|}
             job.id key);
        let report =
          patch_report entry.Cache.report ~job_id:job.id ~tenant:spec.tenant
        in
        locked t (fun () ->
            job.cache <- `Hit;
            job.result <- Some (entry.Cache.circuit_text, report);
            job.state <- Done)
    | None ->
        locked t (fun () -> job.cache <- `Miss);
        (* Instr state is domain-local: this worker's sinks are its
           own; the learner's internal domains replay through
           collect/absorb as usual. *)
        Instr.set_enabled true;
        Instr.reset_aggregates ();
        Instr.set_sinks
          [
            Progress.sink
              ~out:(fun chunk -> push_lines t job chunk)
              ?query_budget:spec.budget ?time_budget_s:spec.time_budget_s ();
          ];
        let finish () =
          Instr.flush_sinks ();
          Instr.set_sinks [];
          Instr.reset_aggregates ();
          Instr.set_enabled false
        in
        let r =
          Fun.protect ~finally:finish (fun () ->
              Learner.learn ~config:(Proto.config_of_spec spec) box)
        in
        let report = Proto.report_json ~job_id:job.id ~spec ~cache_hit:false r in
        let text = Io.write r.Learner.circuit in
        if
          spec.use_cache && r.Learner.degraded = 0
          && not r.Learner.budget_exceeded
        then Cache.insert t.cache ~key ~circuit:r.Learner.circuit ~report;
        locked t (fun () ->
            job.result <- Some (text, report);
            job.state <- Done)
  with e ->
    let msg = Printexc.to_string e in
    locked t (fun () -> job.state <- Failed msg)

let worker t () =
  let rec loop () =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.cond t.mu
    done;
    if Queue.is_empty t.queue then begin
      Mutex.unlock t.mu;
      ()
    end
    else begin
      let job = Queue.pop t.queue in
      job.state <- Running;
      job.exec_order <- t.next_exec;
      t.next_exec <- t.next_exec + 1;
      job.started_at <- Unix.gettimeofday ();
      t.running <- t.running + 1;
      Mutex.unlock t.mu;
      run_job t job;
      Mutex.lock t.mu;
      job.finished_at <- Unix.gettimeofday ();
      t.running <- t.running - 1;
      t.in_flight <- t.in_flight - 1;
      Condition.broadcast t.cond;
      Mutex.unlock t.mu;
      loop ()
    end
  in
  loop ()

(* ---------- public API ---------- *)

let create ?(slots = 2) ?(queue_limit = 16) ?cache_dir ?(fingerprint_words = 4)
    ?tenant_queries ?max_time_budget_s () =
  let slots = max 1 slots and queue_limit = max 0 queue_limit in
  let t =
    {
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      all = [];
      next_id = 1;
      next_exec = 0;
      in_flight = 0;
      running = 0;
      stopping = false;
      reserved = Hashtbl.create 8;
      cache = Cache.create ?dir:cache_dir ();
      slots;
      queue_limit;
      fp_words = max 1 fingerprint_words;
      tenant_queries;
      max_time_budget_s;
      workers = [||];
    }
  in
  t.workers <- Array.init slots (fun _ -> Domain.spawn (worker t));
  t

let validate t (spec : Proto.spec) =
  if spec.case = "" then Error (Bad_spec "empty case")
  else if not (case_known spec) then
    Error (Bad_spec (Printf.sprintf "unknown case or file: %s" spec.case))
  else if spec.jobs < 1 then Error (Bad_spec "jobs must be >= 1")
  else if (match spec.budget with Some b -> b <= 0 | None -> false) then
    Error (Bad_spec "budget must be positive")
  else if
    match spec.time_budget_s with Some b -> b <= 0.0 | None -> false
  then Error (Bad_spec "time budget must be positive")
  else if
    match (spec.time_budget_s, t.max_time_budget_s) with
    | Some b, Some limit -> b > limit
    | _ -> false
  then
    Error
      (Quota
         (Printf.sprintf "time budget exceeds the service limit of %gs"
            (Option.get t.max_time_budget_s)))
  else
    match t.tenant_queries with
    | None -> Ok None
    | Some quota -> (
        match spec.budget with
        | None ->
            Error
              (Bad_spec "tenant quotas are enforced: an explicit budget is \
                         required")
        | Some b ->
            let used =
              Option.value (Hashtbl.find_opt t.reserved spec.tenant) ~default:0
            in
            if used + b > quota then
              Error
                (Quota
                   (Printf.sprintf
                      "tenant %S would exceed its query quota (%d reserved \
                       of %d)"
                      spec.tenant used quota))
            else Ok (Some (spec.tenant, b)))

let submit t spec =
  locked t (fun () ->
      if t.stopping then Error (Overloaded { retry_after_s = 1.0 })
      else
        match validate t spec with
        | Error r -> Error r
        | Ok reservation ->
            if t.in_flight >= t.slots + t.queue_limit then
              Error (Overloaded { retry_after_s = 1.0 })
            else begin
              (match reservation with
              | None -> ()
              | Some (tenant, b) ->
                  let used =
                    Option.value (Hashtbl.find_opt t.reserved tenant)
                      ~default:0
                  in
                  Hashtbl.replace t.reserved tenant (used + b));
              let job =
                {
                  id = Printf.sprintf "j%d" t.next_id;
                  spec;
                  progress = Http.ring_create 4096;
                  submitted_at = Unix.gettimeofday ();
                  state = Queued;
                  cache = `Pending;
                  result = None;
                  exec_order = -1;
                  started_at = 0.0;
                  finished_at = 0.0;
                }
              in
              t.next_id <- t.next_id + 1;
              t.in_flight <- t.in_flight + 1;
              t.all <- job :: t.all;
              Queue.push job t.queue;
              Condition.broadcast t.cond;
              Ok job
            end)

let find t id =
  locked t (fun () -> List.find_opt (fun j -> j.id = id) t.all)

let jobs t = locked t (fun () -> List.rev t.all)
let cache t = t.cache
let queue_depth t = locked t (fun () -> Queue.length t.queue)
let running t = locked t (fun () -> t.running)
let slots t = t.slots

let finished job =
  match job.state with Done | Failed _ -> true | Queued | Running -> false

let wait t job =
  Mutex.lock t.mu;
  while not (finished job) do
    Condition.wait t.cond t.mu
  done;
  Mutex.unlock t.mu

let wait_idle t =
  Mutex.lock t.mu;
  while t.in_flight > 0 do
    Condition.wait t.cond t.mu
  done;
  Mutex.unlock t.mu

let shutdown t =
  let joinable =
    locked t (fun () ->
        if t.stopping then [||]
        else begin
          t.stopping <- true;
          Condition.broadcast t.cond;
          let w = t.workers in
          t.workers <- [||];
          w
        end)
  in
  Array.iter Domain.join joinable
