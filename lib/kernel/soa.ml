module Bv = Lr_bitvec.Bv
module N = Lr_netlist.Netlist
module Instr = Lr_instr.Instr
module Sat = Lr_sat.Sat

(* Opcode byte layout: low 4 bits select the operation, bit 4 complements
   the first operand, bit 5 the second. Complement flags let an AIG import
   stay one node per AND with the literal phases folded into the opcode. *)
let op_const0 = 0
let op_const1 = 1
let op_input = 2
let op_not = 3
let op_and = 4
let op_or = 5
let op_xor = 6
let op_nand = 7
let op_nor = 8
let op_xnor = 9
let flag_neg0 = 0x10
let flag_neg1 = 0x20

type t = {
  nn : int;
  ni : int;
  no : int;
  op : Bytes.t;
  arg0 : int array;
  arg1 : int array;
  sched : int array;  (* level-major evaluation order *)
  level_off : int array;  (* batch boundaries into [sched] *)
  outputs : int array;  (* node per primary output *)
  out_neg : bool array;
  readers : int list array;  (* per input index: nodes reading it, ascending *)
  obs_inputs : int array;  (* input nodes some output reads *)
  obs_index : int array;  (* the input index of each [obs_inputs] node *)
  obs_sched : int array;  (* the other observed nodes, level-major *)
  level : int array;  (* per node: its batch in [sched] *)
  obs_level_off : int array;  (* batch boundaries into [obs_sched] *)
  cones : cone array option Atomic.t;
      (* per input, built on the first toggle query *)
}

(* What a change at the seeds can reach: the observed gates in their
   fanout, seeds left out, in [obs_sched] order, and the outputs that
   read a seed or one of those gates, ascending. *)
and cone = { seeds : int array; gates : int array; reached : int array }

let num_nodes t = t.nn
let num_inputs t = t.ni
let num_outputs t = t.no
let num_levels t = Array.length t.level_off - 1
let num_observed t = Array.length t.obs_inputs + Array.length t.obs_sched
let schedule t = t.sched
let level_offsets t = t.level_off
let input_readers t i = t.readers.(i)
let output_node t o = t.outputs.(o)
let arg0 t n = t.arg0.(n)
let arg1 t n = t.arg1.(n)

let opcode t n = Char.code (Bytes.get t.op n)
let depends_on_arg0 t n = opcode t n land 0xf >= op_not
let depends_on_arg1 t n = opcode t n land 0xf >= op_and

(* ---------------- construction ---------------- *)

let finish ~ni ~no ~op ~arg0 ~arg1 ~outputs ~out_neg =
  let nn = Bytes.length op in
  (* longest-path levels; fanins always point at earlier node ids, so one
     ascending pass suffices *)
  let level = Array.make nn 0 in
  let max_level = ref 0 in
  for n = 0 to nn - 1 do
    let c = Char.code (Bytes.get op n) land 0xf in
    if (c >= op_not && arg0.(n) >= n) || (c >= op_and && arg1.(n) >= n) then
      invalid_arg "Soa: a fanin does not precede its node";
    let l =
      if c < op_not then 0
      else if c = op_not then 1 + level.(arg0.(n))
      else 1 + max level.(arg0.(n)) level.(arg1.(n))
    in
    level.(n) <- l;
    if l > !max_level then max_level := l
  done;
  (* stable counting sort by level: batches in level order, ascending node
     id within a batch *)
  let nlevels = !max_level + 1 in
  let counts = Array.make (nlevels + 1) 0 in
  for n = 0 to nn - 1 do
    counts.(level.(n) + 1) <- counts.(level.(n) + 1) + 1
  done;
  for l = 1 to nlevels do
    counts.(l) <- counts.(l) + counts.(l - 1)
  done;
  let level_off = Array.copy counts in
  let sched = Array.make nn 0 in
  let cursor = Array.copy counts in
  for n = 0 to nn - 1 do
    sched.(cursor.(level.(n))) <- n;
    cursor.(level.(n)) <- cursor.(level.(n)) + 1
  done;
  let readers = Array.make ni [] in
  for n = nn - 1 downto 0 do
    if Char.code (Bytes.get op n) land 0xf = op_input then
      readers.(arg0.(n)) <- n :: readers.(arg0.(n))
  done;
  (* The observed schedule: the outputs' transitive fanin, marked in one
     descending pass (fanins precede their nodes) and read off [sched]
     in level order. Its input nodes are kept apart, with their input
     indices, so a block loads their words straight into their slots. *)
  let mark = Bytes.make nn '\000' in
  Array.iter (fun n -> Bytes.set mark n '\001') outputs;
  let observed = ref 0 and inputs = ref 0 in
  for n = nn - 1 downto 0 do
    if Bytes.unsafe_get mark n <> '\000' then begin
      incr observed;
      let c = Char.code (Bytes.unsafe_get op n) land 0xf in
      if c = op_input then incr inputs;
      if c >= op_not then Bytes.unsafe_set mark arg0.(n) '\001';
      if c >= op_and then Bytes.unsafe_set mark arg1.(n) '\001'
    end
  done;
  let obs_inputs = Array.make !inputs 0 and obs_index = Array.make !inputs 0 in
  let obs_sched = Array.make (!observed - !inputs) 0 in
  let obs_level_off = Array.make (nlevels + 1) 0 in
  let ki = ref 0 and kg = ref 0 in
  Array.iter
    (fun n ->
      if Bytes.unsafe_get mark n <> '\000' then
        if Char.code (Bytes.unsafe_get op n) land 0xf = op_input then begin
          obs_inputs.(!ki) <- n;
          obs_index.(!ki) <- arg0.(n);
          incr ki
        end
        else begin
          obs_sched.(!kg) <- n;
          obs_level_off.(level.(n) + 1) <- !kg + 1;
          incr kg
        end)
    sched;
  (* a batch with no observed gate starts where the previous one ends *)
  for l = 1 to nlevels do
    obs_level_off.(l) <- max obs_level_off.(l) obs_level_off.(l - 1)
  done;
  { nn; ni; no; op; arg0; arg1; sched; level_off; outputs; out_neg; readers;
    obs_inputs; obs_index; obs_sched; level; obs_level_off;
    cones = Atomic.make None }

let of_netlist c =
  let nn = N.num_nodes c in
  let ni = N.num_inputs c in
  let no = N.num_outputs c in
  let op = Bytes.make nn '\000' in
  let arg0 = Array.make nn 0 in
  let arg1 = Array.make nn 0 in
  for n = 0 to nn - 1 do
    let code, a, b =
      match N.gate c n with
      | N.Const false -> op_const0, 0, 0
      | N.Const true -> op_const1, 0, 0
      | N.Input i -> op_input, i, 0
      | N.Not a -> op_not, a, 0
      | N.And2 (a, b) -> op_and, a, b
      | N.Or2 (a, b) -> op_or, a, b
      | N.Xor2 (a, b) -> op_xor, a, b
      | N.Nand2 (a, b) -> op_nand, a, b
      | N.Nor2 (a, b) -> op_nor, a, b
      | N.Xnor2 (a, b) -> op_xnor, a, b
    in
    Bytes.set op n (Char.chr code);
    arg0.(n) <- a;
    arg1.(n) <- b
  done;
  let outputs = Array.init no (N.output c) in
  finish ~ni ~no ~op ~arg0 ~arg1 ~outputs ~out_neg:(Array.make no false)

let of_ands ~num_inputs:ni ~num_outputs:no ~ands ~outputs =
  let nn = 1 + ni + Array.length ands in
  let op = Bytes.make nn (Char.chr op_const0) in
  let arg0 = Array.make nn 0 in
  let arg1 = Array.make nn 0 in
  for i = 0 to ni - 1 do
    Bytes.set op (1 + i) (Char.chr op_input);
    arg0.(1 + i) <- i
  done;
  Array.iteri
    (fun k (l0, l1) ->
      let n = 1 + ni + k in
      let code =
        op_and
        lor (if l0 land 1 = 1 then flag_neg0 else 0)
        lor if l1 land 1 = 1 then flag_neg1 else 0
      in
      Bytes.set op n (Char.chr code);
      arg0.(n) <- l0 lsr 1;
      arg1.(n) <- l1 lsr 1)
    ands;
  let out_nodes = Array.map (fun l -> l lsr 1) outputs in
  let out_neg = Array.map (fun l -> l land 1 = 1) outputs in
  finish ~ni ~no ~op ~arg0 ~arg1 ~outputs:out_nodes ~out_neg

(* ---------------- cones ---------------- *)

let transitive_fanin t =
  let mark = Bytes.make t.nn '\000' in
  fun seeds ->
    let top =
      List.fold_left
        (fun top n ->
          if n < 0 || n >= t.nn then
            invalid_arg "Soa.transitive_fanin: bad node";
          Bytes.set mark n '\001';
          max top n)
        (-1) seeds
    in
    (* one descending pass: fanins always have smaller ids *)
    let count = ref 0 in
    for n = top downto 0 do
      if Bytes.get mark n <> '\000' then begin
        incr count;
        if depends_on_arg0 t n then Bytes.set mark t.arg0.(n) '\001';
        if depends_on_arg1 t n then Bytes.set mark t.arg1.(n) '\001'
      end
    done;
    let cone = Array.make !count 0 in
    let k = ref 0 in
    for n = 0 to top do
      if Bytes.get mark n <> '\000' then begin
        Bytes.set mark n '\000';
        cone.(!k) <- n;
        incr k
      end
    done;
    cone

(* ---------------- simulation ---------------- *)

(* Node values live in an unboxed byte store: an [int64 array] would box
   every value it holds, one minor allocation per node per block. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* One scratch store per domain, grown on demand and reused by every
   circuit, so concurrent simulations on different domains never share
   it. No entry point re-enters another while holding it. *)
let scratch_key = Domain.DLS.new_key (fun () -> ref Bytes.empty)

let scratch words =
  let r = Domain.DLS.get scratch_key in
  if Bytes.length !r < 8 * words then
    r := Bytes.create (max (8 * words) (2 * Bytes.length !r));
  !r

(* Simulate [width] 64-pattern blocks in one pass over [sched]. In
   [buf], node [n]'s word [w] sits at byte [8 * (n * width + w)] and input
   [i]'s at [inoff + 8 * (i * width + w)]. One opcode dispatch then serves
   [width] words of work. *)
let run t sched buf ~width ~inoff =
  let op = t.op and a0 = t.arg0 and a1 = t.arg1 in
  let stride = 8 * width in
  for k = 0 to Array.length sched - 1 do
    let n = Array.unsafe_get sched k in
    let c = Char.code (Bytes.unsafe_get op n) in
    let dst = n * stride in
    let code = c land 0xf in
    if code < op_and then begin
      let src = Array.unsafe_get a0 n * stride in
      for w = 0 to width - 1 do
        let d = dst + (8 * w) in
        match code with
        | 0 -> set64u buf d 0L
        | 1 -> set64u buf d (-1L)
        | 2 -> set64u buf d (get64u buf (inoff + src + (8 * w)))
        | _ -> set64u buf d (Int64.lognot (get64u buf (src + (8 * w))))
      done
    end
    else begin
      let s0 = Array.unsafe_get a0 n * stride in
      let s1 = Array.unsafe_get a1 n * stride in
      let m0 = if c land flag_neg0 <> 0 then -1L else 0L in
      let m1 = if c land flag_neg1 <> 0 then -1L else 0L in
      (* nand/nor/xnor are and/or/xor with the result complemented *)
      let mo = if code >= op_nand then -1L else 0L in
      match (code - op_and) mod 3 with
      | 0 ->
          for w = 0 to width - 1 do
            let x = Int64.logxor (get64u buf (s0 + (8 * w))) m0 in
            let y = Int64.logxor (get64u buf (s1 + (8 * w))) m1 in
            set64u buf (dst + (8 * w)) (Int64.logxor (Int64.logand x y) mo)
          done
      | 1 ->
          for w = 0 to width - 1 do
            let x = Int64.logxor (get64u buf (s0 + (8 * w))) m0 in
            let y = Int64.logxor (get64u buf (s1 + (8 * w))) m1 in
            set64u buf (dst + (8 * w)) (Int64.logxor (Int64.logor x y) mo)
          done
      | _ ->
          for w = 0 to width - 1 do
            let x = Int64.logxor (get64u buf (s0 + (8 * w))) m0 in
            let y = Int64.logxor (get64u buf (s1 + (8 * w))) m1 in
            set64u buf (dst + (8 * w)) (Int64.logxor (Int64.logxor x y) mo)
          done
    end
  done

(* one block: load the input words, simulate, leave values in the store *)
let run_block t words =
  let buf = scratch (t.nn + t.ni) in
  let inoff = 8 * t.nn in
  for i = 0 to t.ni - 1 do
    set64u buf (inoff + (8 * i)) words.(i)
  done;
  run t t.sched buf ~width:1 ~inoff;
  buf

let node_words t words into =
  if Array.length words <> t.ni then
    invalid_arg "Soa.node_words: wrong input count";
  if Bytes.length into < 8 * t.nn then
    invalid_arg "Soa.node_words: store too short";
  Bytes.blit (run_block t words) 0 into 0 (8 * t.nn)

let node_values t words =
  if Array.length words <> t.ni then
    invalid_arg "Soa.node_values: wrong input count";
  let v = Array.make (max 1 t.nn) 0L in
  let buf = run_block t words in
  for n = 0 to t.nn - 1 do
    v.(n) <- get64u buf (8 * n)
  done;
  v

let outputs_of_values t v =
  Array.init t.no (fun o ->
      let w = v.(t.outputs.(o)) in
      if t.out_neg.(o) then Int64.lognot w else w)

(* output [o]'s word [w] of a [width]-block simulation in [buf] *)
let[@inline] output_word t buf ~width ~w o =
  let x = get64u buf (8 * ((t.outputs.(o) * width) + w)) in
  if t.out_neg.(o) then Int64.lognot x else x

(* One block's observed input words, stored straight into their node
   slots as word [w] of a [width]-block pass. *)
let load_observed t buf ~width ~w words =
  let stride = 8 * width in
  for k = 0 to Array.length t.obs_inputs - 1 do
    set64u buf
      ((Array.unsafe_get t.obs_inputs k * stride) + (8 * w))
      words.(Array.unsafe_get t.obs_index k)
  done

let eval_words t words =
  if Array.length words <> t.ni then
    invalid_arg "Soa.eval_words: wrong number of input words";
  Instr.count "sim.gate-words" (num_observed t);
  let buf = scratch t.nn in
  load_observed t buf ~width:1 ~w:0 words;
  run t t.obs_sched buf ~width:1 ~inoff:0;
  Array.init t.no (output_word t buf ~width:1 ~w:0)

(* Up to this many 64-pattern blocks share one pass over the schedule. *)
let max_width = 8

(* [blocks] 64-pattern blocks, up to [max_width] per pass over the
   observed schedule: [load buf ~width ~w b] stores block [b]'s observed
   input words as word [w] of the pass, and [emit buf ~width ~w b] reads
   its output words. *)
let run_blocks t ~blocks ~load ~emit =
  if blocks > 0 then Instr.count "sim.gate-words" (num_observed t * blocks);
  let buf = scratch (t.nn * max_width) in
  let block = ref 0 in
  while !block < blocks do
    let width = min max_width (blocks - !block) in
    for w = 0 to width - 1 do
      load buf ~width ~w (!block + w)
    done;
    run t t.obs_sched buf ~width ~inoff:0;
    for w = 0 to width - 1 do
      emit buf ~width ~w (!block + w)
    done;
    block := !block + width
  done

let eval_blocks t blocks =
  Array.iter
    (fun words ->
      if Array.length words <> t.ni then
        invalid_arg "Soa.eval_blocks: wrong number of input words")
    blocks;
  let results = Array.make (Array.length blocks) [||] in
  run_blocks t ~blocks:(Array.length blocks)
    ~load:(fun buf ~width ~w b -> load_observed t buf ~width ~w blocks.(b))
    ~emit:(fun buf ~width ~w b ->
      results.(b) <- Array.init t.no (output_word t buf ~width ~w));
  results

let eval_store t lanes ~blocks =
  if blocks < 0 then invalid_arg "Soa.eval_store: negative block count";
  if Bytes.length lanes < 8 * t.ni * blocks then
    invalid_arg "Soa.eval_store: store too short";
  let out = Bytes.create (8 * t.no * blocks) in
  run_blocks t ~blocks
    ~load:(fun buf ~width ~w b ->
      let src = 8 * t.ni * b and stride = 8 * width in
      for k = 0 to Array.length t.obs_inputs - 1 do
        set64u buf
          ((Array.unsafe_get t.obs_inputs k * stride) + (8 * w))
          (get64u lanes (src + (8 * Array.unsafe_get t.obs_index k)))
      done)
    ~emit:(fun buf ~width ~w b ->
      let dst = 8 * t.no * b in
      for o = 0 to t.no - 1 do
        set64u out (dst + (8 * o)) (output_word t buf ~width ~w o)
      done);
  out

(* ---------------- probes ---------------- *)

(* Only the observed schedule from the seeds' first batch on can hold a
   gate the seeds reach: a gate's fanins lie in earlier batches, and an
   observed gate reads only observed nodes. *)
let cone t seeds =
  let mark = Bytes.make t.nn '\000' in
  let first =
    List.fold_left
      (fun first n ->
        if n < 0 || n >= t.nn then invalid_arg "Soa.cone: bad node";
        Bytes.unsafe_set mark n '\001';
        min first t.level.(n))
      (num_levels t) seeds
  in
  let marked n = Bytes.unsafe_get mark n <> '\000' in
  let gates = ref [] in
  for k = t.obs_level_off.(first) to Array.length t.obs_sched - 1 do
    let n = t.obs_sched.(k) in
    if
      (not (marked n))
      && ((depends_on_arg0 t n && marked t.arg0.(n))
         || (depends_on_arg1 t n && marked t.arg1.(n)))
    then begin
      Bytes.unsafe_set mark n '\001';
      gates := n :: !gates
    end
  done;
  {
    seeds = Array.of_list seeds;
    gates = Array.of_list (List.rev !gates);
    reached =
      Array.of_seq
        (Seq.filter (fun o -> marked t.outputs.(o)) (Seq.init t.no Fun.id));
  }

(* One block's observed node values in the first [nn] words of [buf],
   a saved copy of them in the next [nn], and its output words. *)
type store = { circuit : t; buf : Bytes.t; base : int64 array }

let fill t buf words =
  load_observed t buf ~width:1 ~w:0 words;
  run t t.obs_sched buf ~width:1 ~inoff:0;
  Bytes.blit buf 0 buf (8 * t.nn) (8 * t.nn);
  let base = Array.init t.no (output_word t buf ~width:1 ~w:0) in
  { circuit = t; buf; base }

let store t words =
  if Array.length words <> t.ni then
    invalid_arg "Soa.store: wrong number of input words";
  fill t (Bytes.make (16 * t.nn) '\000') words

let value s n =
  if n < 0 || n >= s.circuit.nn then invalid_arg "Soa.value: bad node";
  get64u s.buf (8 * n)

(* The one perturb-and-restore loop, in two halves around the caller's
   read. [perturb] sets each seed's word [x] to [x land keep lxor flip]
   (a toggle complements it, a forced node takes [flip]) and re-runs the
   cone's gates; [restore] gives the seeds and gates their saved words
   back. *)
let perturb s cone ~keep ~flip =
  let buf = s.buf in
  for k = 0 to Array.length cone.seeds - 1 do
    let p = 8 * cone.seeds.(k) in
    set64u buf p (Int64.logxor (Int64.logand (get64u buf p) keep) flip)
  done;
  run s.circuit cone.gates buf ~width:1 ~inoff:0

let restore_nodes buf ~saved nodes =
  for k = 0 to Array.length nodes - 1 do
    let p = 8 * nodes.(k) in
    set64u buf p (get64u buf (saved + p))
  done

let restore s cone =
  let saved = 8 * s.circuit.nn in
  restore_nodes s.buf ~saved cone.seeds;
  restore_nodes s.buf ~saved cone.gates

let forced_diff s cone w =
  let nn = s.circuit.nn in
  if Array.exists (fun n -> n >= nn) cone.seeds
     || Array.exists (fun n -> n >= nn) cone.gates
  then invalid_arg "Soa.forced_diff: a cone of another circuit";
  perturb s cone ~keep:0L ~flip:w;
  let d = ref 0L in
  for k = 0 to Array.length cone.reached - 1 do
    let o = cone.reached.(k) in
    let x = output_word s.circuit s.buf ~width:1 ~w:0 o in
    d := Int64.logor !d (Int64.logxor x s.base.(o))
  done;
  restore s cone;
  !d

(* Every input's cone from one pass over the observed schedule: node
   [n]'s row, words [n * nw] on of [rows], holds a bit per input that
   reaches it, the OR of its fanins' rows. The seeds, gates and outputs
   of each input are then read off back to front, so each list comes
   out in order. *)
let input_cones t =
  let nw = (t.ni + 63) / 64 in
  let rows = Bytes.make (8 * nw * t.nn) '\000' in
  let at n k = 8 * ((n * nw) + k) in
  Array.iteri
    (fun k n ->
      let i = t.obs_index.(k) in
      let p = at n (i lsr 6) in
      set64u rows p (Int64.logor (get64u rows p) (Int64.shift_left 1L (i land 63))))
    t.obs_inputs;
  Array.iter
    (fun n ->
      let a0 = depends_on_arg0 t n and a1 = depends_on_arg1 t n in
      for k = 0 to nw - 1 do
        let x = if a0 then get64u rows (at t.arg0.(n) k) else 0L in
        let y = if a1 then get64u rows (at t.arg1.(n) k) else 0L in
        set64u rows (at n k) (Int64.logor x y)
      done)
    t.obs_sched;
  let iter_row n f =
    for k = 0 to nw - 1 do
      let w = ref (get64u rows (at n k)) in
      while !w <> 0L do
        f ((64 * k) + Bv.lowest_bit_word !w);
        w := Int64.logand !w (Int64.pred !w)
      done
    done
  in
  let seeds = Array.make t.ni [] in
  let gates = Array.make t.ni [] and reached = Array.make t.ni [] in
  for k = Array.length t.obs_inputs - 1 downto 0 do
    let i = t.obs_index.(k) in
    seeds.(i) <- t.obs_inputs.(k) :: seeds.(i)
  done;
  for k = Array.length t.obs_sched - 1 downto 0 do
    let n = t.obs_sched.(k) in
    iter_row n (fun i -> gates.(i) <- n :: gates.(i))
  done;
  for o = t.no - 1 downto 0 do
    iter_row t.outputs.(o) (fun i -> reached.(i) <- o :: reached.(i))
  done;
  Array.init t.ni (fun i ->
      {
        seeds = Array.of_list seeds.(i);
        gates = Array.of_list gates.(i);
        reached = Array.of_list reached.(i);
      })

(* Shards on several domains share one compiled circuit: the first
   builder to publish its cones wins, and a racing one drops its equal
   copy. *)
let cones t =
  match Atomic.get t.cones with
  | Some c -> c
  | None ->
      let c = input_cones t in
      if Atomic.compare_and_set t.cones None (Some c) then c
      else Option.get (Atomic.get t.cones)

let eval_toggles t words toggles =
  if Array.length words <> t.ni then
    invalid_arg "Soa.eval_toggles: wrong number of input words";
  Array.iter
    (Array.iter (fun i ->
         if i < 0 || i >= t.ni then
           invalid_arg "Soa.eval_toggles: toggled input out of range"))
    toggles;
  let cones = cones t in
  let s = fill t (scratch (2 * t.nn)) words in
  let answers = Array.make (1 + Array.length toggles) s.base in
  let simulated = ref (num_observed t) in
  for j = 0 to Array.length toggles - 1 do
    let cone =
      match toggles.(j) with
      | [| i |] -> cones.(i)
      | toggle ->
          cone t
            (List.concat_map
               (fun i -> Array.to_list cones.(i).seeds)
               (Array.to_list toggle))
    in
    simulated :=
      !simulated + Array.length cone.seeds + Array.length cone.gates;
    perturb s cone ~keep:(-1L) ~flip:(-1L);
    (* an output the toggle cannot reach keeps the base block's word *)
    let a = Array.copy s.base in
    for k = 0 to Array.length cone.reached - 1 do
      let o = cone.reached.(k) in
      a.(o) <- output_word t s.buf ~width:1 ~w:0 o
    done;
    answers.(j + 1) <- a;
    restore s cone
  done;
  Instr.count "sim.gate-words" !simulated;
  answers

let eval_many t patterns =
  let np = Array.length patterns in
  Instr.count "sim.patterns" np;
  let blocks = (np + 63) / 64 in
  let outs = eval_store t (Bv.to_lane_store t.ni patterns) ~blocks in
  Bv.of_lane_store t.no outs np

(* ---------------- CNF ---------------- *)

let xor_clauses solver t a b =
  Sat.add_clause solver [ -t; a; b ];
  Sat.add_clause solver [ -t; -a; -b ];
  Sat.add_clause solver [ t; -a; b ];
  Sat.add_clause solver [ t; a; -b ]

(* Tseitin clauses of node [n]: nand/nor/xnor are and/or/xor with the
   result complemented, and or is and with every literal complemented *)
let encode_node t solver ~lit:x ~fanin n =
  let c = opcode t n in
  let operand arg flag =
    let l = fanin arg.(n) in
    if c land flag <> 0 then -l else l
  in
  match c land 0xf with
  | 0 -> Sat.add_clause solver [ -x ]
  | 1 -> Sat.add_clause solver [ x ]
  | 2 -> ()
  | 3 ->
      let a = operand t.arg0 flag_neg0 in
      Sat.add_clause solver [ -x; -a ];
      Sat.add_clause solver [ x; a ]
  | code -> (
      let a = operand t.arg0 flag_neg0 and b = operand t.arg1 flag_neg1 in
      let x = if code >= op_nand then -x else x in
      let and_clauses x a b =
        Sat.add_clause solver [ -x; a ];
        Sat.add_clause solver [ -x; b ];
        Sat.add_clause solver [ x; -a; -b ]
      in
      match (code - op_and) mod 3 with
      | 0 -> and_clauses x a b
      | 1 -> and_clauses (-x) (-a) (-b)
      | _ -> xor_clauses solver x a b)

let encode t solver =
  for _ = 1 to t.nn do
    ignore (Sat.new_var solver)
  done;
  for n = 0 to t.nn - 1 do
    encode_node t solver ~lit:(n + 1) ~fanin:(fun m -> m + 1) n
  done
