(** The [lr-serve/v1] wire protocol: job specs and response bodies.

    A learn job is submitted as one JSON object ([POST /learn]); every
    field but [case] is optional and defaults to the values below. The
    daemon answers with job-state objects ([lr-serve/v1]) and, once a
    job is done, a result object ([lr-serve-result/v1]) embedding an
    [lr-run-report/v1] report plus the circuit artifact in the
    native text format ({!Lr_netlist.Io}).

    Encoding and decoding round-trip exactly ({!of_json} ∘ {!to_json} =
    id), which the protocol unit tests pin down. *)

module Config = Logic_regression.Config

type spec = {
  case : string;  (** benchmark case name or circuit file path *)
  tenant : string;  (** budget-accounting principal; default ["default"] *)
  preset : string;  (** ["improved"] (default) or ["contest"] *)
  seed : int;  (** master RNG seed; default 1 *)
  budget : int option;  (** query budget; [None] = unlimited *)
  time_budget_s : float option;  (** wall-clock budget *)
  support_rounds : int option;  (** override the preset's rounds *)
  jobs : int;  (** worker domains inside the learn; default 1 *)
  check : Config.check_level;  (** default [Off] *)
  sweep : Config.sweep_level;  (** default [Sweep_off] *)
  use_cache : bool;
      (** consult/populate the circuit cache; default [true] *)
}

val default : case:string -> spec

val to_json : spec -> Lr_instr.Json.t
val of_json : Lr_instr.Json.t -> (spec, string) result
(** Rejects unknown [schema], non-string [case], malformed enums.
    Ignores unknown keys. *)

val of_string : string -> (spec, string) result
(** Parse then {!of_json}. *)

val config_of_spec : spec -> Config.t
(** The learner configuration a direct CLI run with the same settings
    would build — the service's bit-identity contract depends on it. *)

val config_signature : spec -> string
(** Canonical rendering of every spec field that can change the {e
    learned circuit}: preset, seed, budget, time budget, support
    rounds, sweep. Excluded by design: [jobs] and [check] (both proven
    bit-identity-preserving), [tenant] and [use_cache] (accounting
    only) — so a [jobs=4] request hits the cache entry a [jobs=1]
    request populated. *)

val report_json :
  job_id:string ->
  spec:spec ->
  cache_hit:bool ->
  Logic_regression.Learner.report ->
  Lr_instr.Json.t
(** The [lr-run-report/v1] object of a completed service job, written
    by {!Logic_regression.Learner.report_json} as [learn --json] writes
    it (no scoring: [accuracy] is [null], [eval_patterns] 0), plus the
    service's [job_id], [tenant] and [cache_hit] markers ([lr_report
    check] refuses warm-cache reports). *)
