type check_level = Off | Structural | Full

let check_level_string = function
  | Off -> "off"
  | Structural -> "structural"
  | Full -> "full"

let check_level_of_string = function
  | "off" -> Some Off
  | "structural" -> Some Structural
  | "full" -> Some Full
  | _ -> None

type sweep_level = Sweep_off | Sweep_const | Sweep_full

let sweep_level_string = function
  | Sweep_off -> "off"
  | Sweep_const -> "const"
  | Sweep_full -> "full"

let sweep_level_of_string = function
  | "off" -> Some Sweep_off
  | "const" -> Some Sweep_const
  | "full" -> Some Sweep_full
  | _ -> None

type t = {
  seed : int;
  use_grouping : bool;
  use_templates : bool;
  support_rounds : int;
  node_rounds : int;
  small_support_threshold : int;
  leaf_epsilon : float;
  max_tree_nodes : int;
  use_onset_offset : bool;
  minimize_cover : bool;
  optimize : bool;
  optimize_rounds : int;
  fraig_words : int;
  template_samples : int;
  template_prop_cubes : int;
  refine_rounds : int;
  time_budget_s : float option;
  check_level : check_level;
  sweep : sweep_level;
  jobs : int;
  retry : Lr_faults.Faults.retry;
  faults : Lr_faults.Faults.spec option;
}

let contest =
  {
    seed = 1;
    use_grouping = true;
    use_templates = true;
    support_rounds = 7200;
    node_rounds = 60;
    small_support_threshold = 18;
    leaf_epsilon = 0.0;
    max_tree_nodes = 4096;
    use_onset_offset = false;
    minimize_cover = false;
    optimize = true;
    optimize_rounds = 2;
    fraig_words = 8;
    template_samples = 64;
    template_prop_cubes = 4;
    refine_rounds = 0;
    time_budget_s = None;
    check_level = Off;
    sweep = Sweep_off;
    jobs = 1;
    retry = Lr_faults.Faults.no_retry;
    faults = None;
  }

let improved =
  {
    contest with
    leaf_epsilon = 0.02;
    use_onset_offset = true;
    minimize_cover = true;
    optimize_rounds = 4;
    fraig_words = 16;
  }

let default = improved

let with_seed seed t = { t with seed }
let with_time_budget time_budget_s t = { t with time_budget_s }
let with_check check_level t = { t with check_level }
let with_sweep sweep t = { t with sweep }
let with_jobs jobs t = { t with jobs }
let with_retry retry t = { t with retry }
let with_faults faults t = { t with faults }
