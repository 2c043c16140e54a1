(* Conflict-driven clause learning in the MiniSat architecture.
   Internal literal encoding: [2*v] is the positive literal of 0-based
   variable [v], [2*v+1] its negation; [lit lxor 1] complements. *)

type result = Sat | Unsat

module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  (* storage comes with the first push: most literals of a circuit's
     CNF watch few clauses, and many none *)
  let create () = { data = [||]; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (max 4 (2 * t.len)) 0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let get t i = t.data.(i)
  let set t i x = t.data.(i) <- x
  let len t = t.len
  let shrink t n = t.len <- n
end

type t = {
  mutable nvars : int;
  mutable clauses : int array array;
  mutable nclauses : int;
  mutable watches : Vec.t array; (* per literal *)
  mutable assigns : int array; (* per var: -1 undef / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array; (* clause index or -1 *)
  mutable activity : float array;
  mutable polarity : bool array; (* phase saving *)
  mutable seen : bool array;
  trail : Vec.t;
  trail_lim : Vec.t;
  mutable qhead : int;
  mutable var_inc : float;
  mutable ok : bool; (* false once root-level conflict is derived *)
  mutable conflicts : int;
  mutable restarts : int;
}

let create () =
  {
    nvars = 0;
    clauses = Array.make 16 [||];
    nclauses = 0;
    watches = Array.make 16 (Vec.create ());
    assigns = [||];
    level = [||];
    reason = [||];
    activity = [||];
    polarity = [||];
    seen = [||];
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    var_inc = 1.0;
    ok = true;
    conflicts = 0;
    restarts = 0;
  }

let num_vars t = t.nvars

(* room for [cap] variables *)
let resize t cap =
  let old = Array.length t.assigns in
  if cap > old then begin
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 old;
      b
    in
    t.assigns <- extend t.assigns (-1);
    t.level <- extend t.level 0;
    t.reason <- extend t.reason (-1);
    t.activity <- extend t.activity 0.0;
    t.polarity <- extend t.polarity false;
    t.seen <- extend t.seen false;
    let w = Array.make (2 * cap) (Vec.create ()) in
    Array.blit t.watches 0 w 0 (2 * old);
    for i = 2 * old to (2 * cap) - 1 do
      w.(i) <- Vec.create ()
    done;
    t.watches <- w
  end

let reserve t n = resize t (t.nvars + n)

let new_var t =
  t.nvars <- t.nvars + 1;
  if t.nvars > Array.length t.assigns then
    resize t (max 16 (2 * Array.length t.assigns));
  t.nvars

(* internal encodings *)
let lit_of_dimacs l =
  let v = abs l - 1 in
  (2 * v) + if l < 0 then 1 else 0

let var_of_lit l = l lsr 1

let lit_value t l =
  let a = t.assigns.(var_of_lit l) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level t = Vec.len t.trail_lim

let enqueue t l reason =
  t.assigns.(var_of_lit l) <- 1 - (l land 1);
  t.level.(var_of_lit l) <- decision_level t;
  t.reason.(var_of_lit l) <- reason;
  Vec.push t.trail l

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Vec.get t.trail_lim lvl in
    for i = Vec.len t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = var_of_lit l in
      t.assigns.(v) <- -1;
      t.polarity.(v) <- l land 1 = 0;
      t.reason.(v) <- -1
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim lvl;
    t.qhead <- Vec.len t.trail
  end

let push_clause t arr =
  if t.nclauses = Array.length t.clauses then begin
    let c = Array.make (2 * t.nclauses) [||] in
    Array.blit t.clauses 0 c 0 t.nclauses;
    t.clauses <- c
  end;
  t.clauses.(t.nclauses) <- arr;
  t.nclauses <- t.nclauses + 1;
  t.nclauses - 1

let watch_clause t ci =
  let c = t.clauses.(ci) in
  Vec.push t.watches.(c.(0) lxor 1) ci;
  Vec.push t.watches.(c.(1) lxor 1) ci

(* Returns the index of a conflicting clause, or -1. *)
let propagate t =
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < Vec.len t.trail do
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    let ws = t.watches.(p) in
    (* [p] became true; visit clauses watching [~p]. We compact [ws] in
       place: surviving watches are written back at [kept]. *)
    let kept = ref 0 in
    let i = ref 0 in
    let n = Vec.len ws in
    while !i < n do
      let ci = Vec.get ws !i in
      incr i;
      if !conflict >= 0 then begin
        Vec.set ws !kept ci;
        incr kept
      end
      else begin
        let c = t.clauses.(ci) in
        let falsified = p lxor 1 in
        if c.(0) = falsified then begin
          c.(0) <- c.(1);
          c.(1) <- falsified
        end;
        if lit_value t c.(0) = 1 then begin
          Vec.set ws !kept ci;
          incr kept
        end
        else begin
          (* search replacement watch *)
          let len = Array.length c in
          let found = ref false in
          let k = ref 2 in
          while (not !found) && !k < len do
            if lit_value t c.(!k) <> 0 then begin
              c.(1) <- c.(!k);
              c.(!k) <- falsified;
              Vec.push t.watches.(c.(1) lxor 1) ci;
              found := true
            end;
            incr k
          done;
          if !found then ()
          else begin
            Vec.set ws !kept ci;
            incr kept;
            if lit_value t c.(0) = 0 then conflict := ci
            else enqueue t c.(0) ci
          end
        end
      end
    done;
    Vec.shrink ws !kept
  done;
  !conflict

let bump_var t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end

let decay_activities t = t.var_inc <- t.var_inc /. 0.95

(* First-UIP conflict analysis. Returns (learned clause with asserting
   literal first, backtrack level). *)
let analyze t confl =
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (Vec.len t.trail - 1) in
  let confl = ref confl in
  let dl = decision_level t in
  let continue = ref true in
  while !continue do
    let c = t.clauses.(!confl) in
    let start = if !p < 0 then 0 else 1 in
    for j = start to Array.length c - 1 do
      let q = c.(j) in
      let v = var_of_lit q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        bump_var t v;
        if t.level.(v) >= dl then incr counter
        else learnt := q :: !learnt
      end
    done;
    (* pick next literal to resolve on: last assigned seen var *)
    let rec next () =
      let l = Vec.get t.trail !index in
      decr index;
      if t.seen.(var_of_lit l) then l else next ()
    in
    let l = next () in
    t.seen.(var_of_lit l) <- false;
    decr counter;
    if !counter = 0 then begin
      p := l;
      continue := false
    end
    else begin
      p := l;
      confl := t.reason.(var_of_lit l)
    end
  done;
  let asserting = !p lxor 1 in
  let clause = asserting :: !learnt in
  List.iter (fun q -> t.seen.(var_of_lit q) <- false) !learnt;
  let bt =
    List.fold_left
      (fun acc q -> if q = asserting then acc else max acc (t.level.(var_of_lit q)))
      0 clause
  in
  clause, bt

let learn t clause bt =
  cancel_until t bt;
  match clause with
  | [] -> t.ok <- false
  | [ l ] -> if lit_value t l <> 1 then enqueue t l (-1)
  | first :: _ ->
      (* ensure second watched literal is at the backtrack level *)
      let arr = Array.of_list clause in
      let best = ref 1 in
      for j = 2 to Array.length arr - 1 do
        if t.level.(var_of_lit arr.(j)) > t.level.(var_of_lit arr.(!best)) then
          best := j
      done;
      let tmp = arr.(1) in
      arr.(1) <- arr.(!best);
      arr.(!best) <- tmp;
      let ci = push_clause t arr in
      watch_clause t ci;
      enqueue t first ci

let add_clause t lits =
  if t.ok then begin
    (* adding clauses invalidates any previous model *)
    cancel_until t 0;
    let c = Array.of_list lits in
    for i = 0 to Array.length c - 1 do
      c.(i) <- lit_of_dimacs c.(i)
    done;
    Array.sort Int.compare c;
    (* Sorted, copies of a literal are adjacent, and so are [2v] and
       [2v+1]. Keep one copy of each literal that is not false at the
       root, in place; one that is true satisfies the clause. *)
    let tautology = ref false and satisfied = ref false and k = ref 0 in
    for i = 0 to Array.length c - 1 do
      let l = c.(i) in
      if i = 0 || c.(i - 1) <> l then begin
        if i > 0 && c.(i - 1) = l lxor 1 then tautology := true;
        match lit_value t l with
        | 0 -> ()
        | v ->
            if v = 1 then satisfied := true;
            c.(!k) <- l;
            incr k
      end
    done;
    if not (!tautology || !satisfied) then
      match !k with
      | 0 -> t.ok <- false
      | 1 ->
          enqueue t c.(0) (-1);
          if propagate t >= 0 then t.ok <- false
      | k ->
          let c = if k = Array.length c then c else Array.sub c 0 k in
          watch_clause t (push_clause t c)
  end

(* The unassigned variable of highest activity, by a linear scan over
   every variable or over the decision set (DIMACS variables): the first
   one wins a tie, -1 when all are assigned. *)
let pick_branch_var t decide =
  let best = ref (-1) and best_act = ref neg_infinity in
  let n = match decide with None -> t.nvars | Some d -> Array.length d in
  for i = 0 to n - 1 do
    let v = match decide with None -> i | Some d -> d.(i) - 1 in
    if t.assigns.(v) < 0 && t.activity.(v) > !best_act then begin
      best := v;
      best_act := t.activity.(v)
    end
  done;
  !best

let solve ?(assumptions = []) ?decide t =
  if not t.ok then Unsat
  else begin
    Option.iter
      (Array.iter (fun v ->
           if v < 1 || v > t.nvars then
             invalid_arg "Sat.solve: unknown decision variable"))
      decide;
    let assume = Array.of_list (List.map lit_of_dimacs assumptions) in
    let nassume = Array.length assume in
    cancel_until t 0;
    let restart_limit = ref 100 in
    let conflicts_here = ref 0 in
    let answer = ref None in
    while !answer = None do
      let confl = propagate t in
      if confl >= 0 then begin
        t.conflicts <- t.conflicts + 1;
        incr conflicts_here;
        if decision_level t <= nassume then answer := Some Unsat
        else begin
          let clause, bt = analyze t confl in
          (* never backjump into the middle of the assumption prefix with a
             pending asserting literal below it: clamp is safe because the
             asserting literal's level is <= bt by construction *)
          learn t clause bt;
          decay_activities t;
          if not t.ok then answer := Some Unsat
        end
      end
      else if !conflicts_here >= !restart_limit then begin
        conflicts_here := 0;
        restart_limit := !restart_limit * 3 / 2;
        t.restarts <- t.restarts + 1;
        cancel_until t 0
      end
      else begin
        let dl = decision_level t in
        if dl < nassume then begin
          let a = assume.(dl) in
          match lit_value t a with
          | 0 -> answer := Some Unsat
          | 1 ->
              (* already implied: open a vacuous level to keep the
                 level<->assumption indexing aligned *)
              Vec.push t.trail_lim (Vec.len t.trail)
          | _ ->
              Vec.push t.trail_lim (Vec.len t.trail);
              enqueue t a (-1)
        end
        else begin
          let v = pick_branch_var t decide in
          if v < 0 then answer := Some Sat
          else begin
            Vec.push t.trail_lim (Vec.len t.trail);
            enqueue t ((2 * v) + if t.polarity.(v) then 0 else 1) (-1)
          end
        end
      end
    done;
    match !answer with Some r -> r | None -> assert false
  end

let value t v =
  if v < 1 || v > t.nvars then invalid_arg "Sat.value: unknown variable";
  t.assigns.(v - 1) = 1

let stats_conflicts t = t.conflicts
let stats_restarts t = t.restarts
