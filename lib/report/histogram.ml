module Json = Lr_instr.Json

type t = {
  bounds : float array;  (** strictly increasing bucket upper bounds *)
  counts : int array;  (** [length bounds + 1]; the last is overflow *)
  mutable n : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

let create ?(lo = 1e-7) ?(hi = 1e3) ?(per_decade = 5) () =
  if not (lo > 0.0 && hi > lo) || per_decade <= 0 then
    invalid_arg "Histogram.create";
  let decades = log10 (hi /. lo) in
  (* enough bounds that the last one reaches [hi] *)
  let nb = int_of_float (ceil ((decades *. float_of_int per_decade) -. 1e-9)) + 1 in
  let bounds =
    Array.init nb (fun i ->
        lo *. (10.0 ** (float_of_int i /. float_of_int per_decade)))
  in
  {
    bounds;
    counts = Array.make (nb + 1) 0;
    n = 0;
    sum = 0.0;
    minv = infinity;
    maxv = neg_infinity;
  }

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.n <- 0;
  t.sum <- 0.0;
  t.minv <- infinity;
  t.maxv <- neg_infinity

(* smallest i with v <= bounds.(i); the overflow index when none *)
let index t v =
  let nb = Array.length t.bounds in
  if v <= t.bounds.(0) then 0
  else if v > t.bounds.(nb - 1) then nb
  else begin
    let lo = ref 0 and hi = ref (nb - 1) in
    (* invariant: bounds.(!lo) < v <= bounds.(!hi) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if v <= t.bounds.(mid) then hi := mid else lo := mid
    done;
    !hi
  end

let add_n t v k =
  if k > 0 && Float.is_finite v then begin
    t.counts.(index t v) <- t.counts.(index t v) + k;
    t.n <- t.n + k;
    t.sum <- t.sum +. (v *. float_of_int k);
    if v < t.minv then t.minv <- v;
    if v > t.maxv then t.maxv <- v
  end

let add t v = add_n t v 1

let merge ~into src =
  if Array.length into.counts <> Array.length src.counts
     || into.bounds <> src.bounds
  then invalid_arg "Histogram.merge: layout mismatch";
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.n <- into.n + src.n;
  into.sum <- into.sum +. src.sum;
  if src.minv < into.minv then into.minv <- src.minv;
  if src.maxv > into.maxv then into.maxv <- src.maxv

let count t = t.n
let sum t = t.sum
let mean t = if t.n = 0 then nan else t.sum /. float_of_int t.n
let min_value t = if t.n = 0 then nan else t.minv
let max_value t = if t.n = 0 then nan else t.maxv

let quantile t q =
  if t.n = 0 then nan
  else
    let q = Float.max 0.0 (Float.min 1.0 q) in
    if q <= 0.0 then t.minv
    else if q >= 1.0 then t.maxv
    else begin
      let rank = max 1 (min t.n (int_of_float (ceil (q *. float_of_int t.n)))) in
      let nb = Array.length t.bounds in
      let acc = ref 0 and i = ref 0 in
      while !acc < rank && !i <= nb do
        acc := !acc + t.counts.(!i);
        if !acc < rank then incr i
      done;
      let v = if !i < nb then t.bounds.(!i) else t.maxv in
      Float.max t.minv (Float.min t.maxv v)
    end

let buckets t =
  let nb = Array.length t.bounds in
  let out = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then
      out := ((if i < nb then t.bounds.(i) else infinity), t.counts.(i)) :: !out
  done;
  !out

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summarize t =
  {
    count = t.n;
    mean = mean t;
    min = min_value t;
    max = max_value t;
    p50 = quantile t 0.5;
    p90 = quantile t 0.9;
    p99 = quantile t 0.99;
  }

let summary_to_json s =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("mean", Json.Float s.mean);
      ("min", Json.Float s.min);
      ("max", Json.Float s.max);
      ("p50", Json.Float s.p50);
      ("p90", Json.Float s.p90);
      ("p99", Json.Float s.p99);
    ]

let summary_of_json v =
  match Option.bind (Json.member "count" v) Json.get_int with
  | None -> None
  | Some count ->
      (* a field serialized from an empty summary comes back as [Null] *)
      let f k =
        match Option.bind (Json.member k v) Json.get_float with
        | Some x -> x
        | None -> nan
      in
      Some
        {
          count;
          mean = f "mean";
          min = f "min";
          max = f "max";
          p50 = f "p50";
          p90 = f "p90";
          p99 = f "p99";
        }
