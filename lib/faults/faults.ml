module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng

(* ---------- retry policy ---------- *)

type retry = { max_attempts : int; backoff_s : float; backoff_mult : float }

let no_retry = { max_attempts = 1; backoff_s = 0.0; backoff_mult = 2.0 }

let retry ?(backoff_s = 1e-3) ?(backoff_mult = 2.0) max_attempts =
  if max_attempts < 1 then invalid_arg "Faults.retry: max_attempts < 1";
  { max_attempts; backoff_s; backoff_mult }

let backoff_delay r ~attempt =
  r.backoff_s *. (r.backoff_mult ** float_of_int attempt)

(* ---------- schedules ---------- *)

type corruption = Stuck_at of bool | Flip

type spec = {
  seed : int;
  fail_p : float;
  fail_burst : int;
  latency_p : float;
  latency_s : float;
  corruption : corruption option;
  victim : int;
  onset : int;
  duration : int;
  exhaust_after : int option;
}

let none =
  {
    seed = 1;
    fail_p = 0.0;
    fail_burst = 1;
    latency_p = 0.0;
    latency_s = 0.0;
    corruption = None;
    victim = 0;
    onset = 0;
    duration = max_int;
    exhaust_after = None;
  }

(* ---------- compact string form ---------- *)

(* the shortest of three precisions that reads back to [f] exactly, so
   everyday values keep their short spelling ([0.02], not
   [0.020000000000000000416]) and [of_string (to_string s) = Ok s] holds
   for every float; [%.17g] always round-trips a double *)
let float_compact f =
  let exact fmt =
    let s = Printf.sprintf fmt f in
    if float_of_string s = f then Some s else None
  in
  match exact "%.12g" with
  | Some s -> s
  | None -> (
      match exact "%.15g" with Some s -> s | None -> Printf.sprintf "%.17g" f)

let to_string s =
  let parts = ref [] in
  let add fmt = Printf.ksprintf (fun p -> parts := p :: !parts) fmt in
  add "seed=%d" s.seed;
  if s.fail_p > 0.0 then add "fail=%s" (float_compact s.fail_p);
  if s.fail_burst <> none.fail_burst then add "burst=%d" s.fail_burst;
  if s.latency_p <> none.latency_p || s.latency_s <> none.latency_s then
    add "latency=%s:%s" (float_compact s.latency_p) (float_compact s.latency_s);
  (match s.corruption with
  | Some Flip -> add "flip=%d" s.victim
  | Some (Stuck_at v) -> add "stuck=%d:%d" s.victim (if v then 1 else 0)
  | None -> ());
  if s.onset <> 0 then add "at=%d" s.onset;
  if s.duration <> max_int then add "for=%d" s.duration;
  (match s.exhaust_after with Some n -> add "exhaust=%d" n | None -> ());
  String.concat "," (List.rev !parts)

let of_string text =
  let ( let* ) = Result.bind in
  let int_v key v =
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "%s: not an integer: %s" key v)
  in
  let float_v key v =
    match float_of_string_opt v with
    | Some f when Float.is_finite f -> Ok f
    | _ -> Error (Printf.sprintf "%s: not a number: %s" key v)
  in
  let prob key v =
    let* p = float_v key v in
    if p < 0.0 || p > 1.0 then
      Error (Printf.sprintf "%s: probability out of [0,1]: %s" key v)
    else Ok p
  in
  let apply acc part =
    let* acc = acc in
    match String.index_opt part '=' with
    | None -> Error (Printf.sprintf "expected key=value, got %S" part)
    | Some i -> (
        let key = String.sub part 0 i in
        let v = String.sub part (i + 1) (String.length part - i - 1) in
        match key with
        | "seed" ->
            let* seed = int_v key v in
            Ok { acc with seed }
        | "fail" ->
            let* fail_p = prob key v in
            Ok { acc with fail_p }
        | "burst" ->
            let* fail_burst = int_v key v in
            if fail_burst < 0 then Error "burst: negative"
            else Ok { acc with fail_burst }
        | "latency" -> (
            match String.index_opt v ':' with
            | None -> Error "latency: expected P:SECONDS"
            | Some j ->
                let* latency_p = prob key (String.sub v 0 j) in
                let* latency_s =
                  float_v key (String.sub v (j + 1) (String.length v - j - 1))
                in
                if latency_s < 0.0 then Error "latency: negative seconds"
                else Ok { acc with latency_p; latency_s })
        | "flip" ->
            let* victim = int_v key v in
            Ok { acc with corruption = Some Flip; victim }
        | "stuck" -> (
            match String.index_opt v ':' with
            | None -> Error "stuck: expected BIT:0|1"
            | Some j -> (
                let* victim = int_v key (String.sub v 0 j) in
                match String.sub v (j + 1) (String.length v - j - 1) with
                | "0" -> Ok { acc with corruption = Some (Stuck_at false); victim }
                | "1" -> Ok { acc with corruption = Some (Stuck_at true); victim }
                | bad -> Error (Printf.sprintf "stuck: bad value %S" bad)))
        | "at" ->
            let* onset = int_v key v in
            if onset < 0 then Error "at: negative" else Ok { acc with onset }
        | "for" ->
            let* duration = int_v key v in
            if duration < 0 then Error "for: negative"
            else Ok { acc with duration }
        | "exhaust" ->
            let* n = int_v key v in
            if n < 0 then Error "exhaust: negative"
            else Ok { acc with exhaust_after = Some n }
        | _ -> Error (Printf.sprintf "unknown fault key %S" key))
  in
  if String.trim text = "" then Error "empty fault spec"
  else
    String.split_on_char ',' text
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
    |> List.fold_left apply (Ok none)

(* ---------- instantiated streams ---------- *)

exception Query_failed of { key : int; ordinal : int; attempts : int }

let () =
  Printexc.register_printer (function
    | Query_failed { key; ordinal; attempts } ->
        Some
          (Printf.sprintf
             "Faults.Query_failed: query batch %d of fault stream %d still \
              failing after %d attempt(s)"
             ordinal key attempts)
    | _ -> None)

type t = {
  spec : spec;
  key : int;
  mutable batch : int;  (** batches committed on this stream *)
  mutable served : int;  (** queries served (corruption/exhaust cursor) *)
  mutable transient : int;
  mutable corrupt : int;
  mutable latency : int;
  mutable tripped : bool;  (** an absorbed shard stream hit exhaustion *)
}

let instantiate spec ~key =
  {
    spec;
    key;
    batch = 0;
    served = 0;
    transient = 0;
    corrupt = 0;
    latency = 0;
    tripped = false;
  }

let spec t = t.spec
let key t = t.key

(* One uniform draw per (seed, key, batch, lane), order-independent:
   [split_keyed] never advances its argument, so the schedule is a pure
   function of the coordinates however the stream is interleaved. *)
let draw t lane =
  let r = Rng.create t.spec.seed in
  let r = Rng.split_keyed r t.key in
  let r = Rng.split_keyed r t.batch in
  Rng.float (Rng.split_keyed r lane)

let attempt_fails t ~attempt =
  let fails =
    t.spec.fail_p > 0.0
    && (t.spec.fail_burst = 0 || attempt < t.spec.fail_burst)
    && draw t 0 < t.spec.fail_p
  in
  if fails then t.transient <- t.transient + 1;
  fails

let spike t =
  if t.spec.latency_p > 0.0 && draw t 1 < t.spec.latency_p then begin
    t.latency <- t.latency + 1;
    t.spec.latency_s
  end
  else 0.0

let in_window t q =
  q >= t.spec.onset
  && (t.spec.duration = max_int || q - t.spec.onset < t.spec.duration)

(* Every batch, whatever form its answers took, ends by advancing the
   batch cursor that keys the next batch's draws. *)
let commit t outs =
  let outs =
    match t.spec.corruption with
    | None ->
        t.served <- t.served + Array.length outs;
        outs
    | Some c ->
        Array.map
          (fun o ->
            let q = t.served in
            t.served <- q + 1;
            if in_window t q && t.spec.victim < Bv.length o then begin
              let o' = Bv.copy o in
              (match c with
              | Flip -> Bv.set o' t.spec.victim (not (Bv.get o t.spec.victim))
              | Stuck_at v -> Bv.set o' t.spec.victim v);
              if not (Bv.equal o o') then t.corrupt <- t.corrupt + 1;
              o'
            end
            else o)
          outs
  in
  t.batch <- t.batch + 1;
  outs

(* One block's answers: its [count] queries are served next, and the
   victim bit is flipped or stuck in the lanes whose query ordinal falls
   inside the window. *)
let commit_block ~count t outs =
  let served_before = t.served in
  t.served <- t.served + count;
  match t.spec.corruption with
  | None -> outs
  | Some c ->
      let window = ref 0L in
      for k = 0 to count - 1 do
        if in_window t (served_before + k) then
          window := Int64.logor !window (Int64.shift_left 1L k)
      done;
      let v = t.spec.victim in
      if !window = 0L || v >= Array.length outs then outs
      else begin
        let w = outs.(v) and m = !window in
        let w' =
          match c with
          | Flip -> Int64.logxor w m
          | Stuck_at true -> Int64.logor w m
          | Stuck_at false -> Int64.logand w (Int64.lognot m)
        in
        t.corrupt <- t.corrupt + Bv.popcount_word (Int64.logxor w w');
        let outs = Array.copy outs in
        outs.(v) <- w';
        outs
      end

let commit_words ~count t blocks =
  let blocks = Array.map (commit_block ~count t) blocks in
  t.batch <- t.batch + 1;
  blocks

let exhausted t =
  match t.spec.exhaust_after with Some n -> t.served >= n | None -> false

let seen t =
  [
    ("transient", t.transient);
    ("corrupt", t.corrupt);
    ("latency", t.latency);
    ("exhaust", if exhausted t || t.tripped then 1 else 0);
  ]

let absorb ~into src =
  into.transient <- into.transient + src.transient;
  into.corrupt <- into.corrupt + src.corrupt;
  into.latency <- into.latency + src.latency;
  into.tripped <- into.tripped || src.tripped || exhausted src
