(* The pinned workloads and the rule that decides whether one learn
   failed. Why each workload exists is recorded in BENCHMARK.json and
   README.md; this file holds what the runner needs. *)

module Config = Logic_regression.Config

type t = {
  name : string;
  cases : string list;
  config : Config.t;  (** [Config.seed] is replaced by the workload seed *)
  exact : bool;
      (** every case is learned exactly, so each circuit must be proven
          equivalent to its golden circuit *)
  floors : (string * float) list;
      (** approximate workloads: per-case accuracy floor in percent *)
}

let improved = Config.improved

let all =
  [
    {
      name = "eco-sampled";
      cases =
        [ "case_2"; "case_4"; "case_7"; "case_10"; "case_11"; "case_13"; "case_19" ];
      config = improved;
      exact = true;
      floors = [];
    };
    {
      name = "templates";
      cases = [ "case_3"; "case_6"; "case_12"; "case_16"; "case_20" ];
      config = improved;
      exact = true;
      floors = [];
    };
    {
      name = "hard-fbdt";
      cases = [ "case_14"; "case_18" ];
      config = { improved with Config.max_tree_nodes = 128 };
      exact = false;
      (* seed-1 accuracy minus 5 points; seeds 1-20 read 24.5-25.7 % and
         49.3-50.6 % *)
      floors = [ ("case_14", 19.8); ("case_18", 45.1) ];
    };
    {
      name = "verified-sweep";
      cases = [ "case_3"; "case_6"; "case_16"; "case_20" ];
      config =
        { improved with Config.sweep = Config.Sweep_full; check_level = Full };
      exact = true;
      floors = [];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* What one learn produced, as far as correctness is concerned. *)
type outcome = {
  case : string;
  raised : string option;
  degraded : int;
  budget_exceeded : bool;
  shape_ok : bool;  (** same PI/PO counts as the golden circuit *)
  equivalent : bool option;  (** CEC verdict; [None] when not checked *)
  accuracy_pct : float;
  digest : string;  (** of the circuit's [Lr_netlist.Io.write] text *)
}

(* [reference] is the digest the first learn of this case produced; every
   later learn of the same case and seed must reproduce it. *)
let failure w ~reference o =
  match o.raised with
  | Some e -> Some ("raised " ^ e)
  | None ->
      if o.degraded > 0 then Some (Printf.sprintf "%d degraded outputs" o.degraded)
      else if o.budget_exceeded then Some "time budget exceeded"
      else if not o.shape_ok then Some "PI/PO shape differs from the golden circuit"
      else if w.exact && o.equivalent <> Some true then
        Some "not proven equivalent to the golden circuit"
      else
        match List.assoc_opt o.case w.floors with
        | Some floor when o.accuracy_pct < floor ->
            Some
              (Printf.sprintf "accuracy %.3f%% below the %.1f%% floor"
                 o.accuracy_pct floor)
        | _ -> (
            match reference with
            | Some d when d <> o.digest -> Some "circuit differs from the first learn"
            | _ -> None)

let failed_pct ~attempted ~failed =
  if attempted = 0 then 0.0
  else 100.0 *. float_of_int failed /. float_of_int attempted
