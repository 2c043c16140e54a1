(* The domain pool and everything that must merge cleanly under it:
   deterministic result ordering, task error propagation, the
   Lr_instr collect/absorb path hammered from several domains, histogram
   merging, and Blackbox accounting shards (including a strict shard's
   exhaustion raised inside a worker and surfacing with the output index
   attached). *)

module Par = Lr_par.Par
module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module Box = Lr_blackbox.Blackbox
module Instr = Lr_instr.Instr
module Histogram = Lr_report.Histogram

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_clean f =
  Instr.set_sinks [];
  Fun.protect
    ~finally:(fun () ->
      Instr.set_sinks [];
      Instr.set_clock Unix.gettimeofday)
    f

(* ---------------- pool basics ---------------- *)

let test_map_order () =
  Par.with_pool ~jobs:4 @@ fun pool ->
  let items = Array.init 40 Fun.id in
  let results = Par.map pool (fun i -> i * i) items in
  check "40 results" true (Array.length results = 40);
  Array.iteri (fun i r -> check_int "ordered" (i * i) r) results

let test_map_inline () =
  (* jobs = 1 must not spawn: tasks run on the calling domain, where
     they can see domain-local state *)
  let key = Domain.DLS.new_key (fun () -> 0) in
  Domain.DLS.set key 42;
  Par.with_pool ~jobs:1 @@ fun pool ->
  let seen = Par.map pool (fun _ -> Domain.DLS.get key) [| (); (); () |] in
  Array.iter (check_int "calling domain" 42) seen

let test_task_error () =
  Par.with_pool ~jobs:3 @@ fun pool ->
  let finished = Atomic.make 0 in
  match
    Par.map pool
      ~labels:(fun i -> Printf.sprintf "po:%d" i)
      (fun i ->
        if i = 7 then failwith "boom" else Atomic.incr finished;
        i)
      (Array.init 12 Fun.id)
  with
  | _ -> Alcotest.fail "expected Task_error"
  | exception Par.Task_error { index; label; exn; _ } ->
      check_int "failing index" 7 index;
      Alcotest.(check string) "label carries the item" "po:7" label;
      check "original exception kept" true
        (match exn with Failure m -> m = "boom" | _ -> false);
      (* the pool waits for every task even when one fails *)
      check_int "other tasks all finished" 11 (Atomic.get finished)

let test_lowest_index_wins () =
  Par.with_pool ~jobs:4 @@ fun pool ->
  match
    Par.map pool
      (fun i -> if i mod 3 = 1 then failwith "x" else i)
      (Array.init 10 Fun.id)
  with
  | _ -> Alcotest.fail "expected Task_error"
  | exception Par.Task_error { index; _ } ->
      check_int "deterministic report: lowest index" 1 index

(* ---------------- instr under domains ---------------- *)

let test_instr_concurrent_merge () =
  with_clean @@ fun () ->
  let per_task = 1000 in
  let snapshots =
    Par.with_pool ~jobs:4 @@ fun pool ->
    Par.map pool
      (fun t ->
        snd
          (Instr.collect (fun () ->
               Instr.span ~name:"work" (fun () ->
                   for _ = 1 to per_task do
                     Instr.count "hits" 1
                   done;
                   Instr.count (Printf.sprintf "task%d" t) 1))))
      (Array.init 4 Fun.id)
  in
  let tally = Tally.install () in
  Array.iter Instr.absorb snapshots;
  check_int "no lost counter updates" (4 * per_task)
    (Tally.total tally "hits");
  List.iter
    (fun t -> check_int "per-task counter" 1
        (Tally.total tally (Printf.sprintf "task%d" t)))
    [ 0; 1; 2; 3 ];
  (* one replayed span per task *)
  check_int "span calls merged" 4 (Tally.span_calls tally "work")

let test_histogram_concurrent_merge () =
  let per_task = 5000 in
  let parts =
    Par.with_pool ~jobs:4 @@ fun pool ->
    Par.map pool
      (fun t ->
        let h = Histogram.create () in
        for i = 1 to per_task do
          Histogram.add h (float_of_int ((t * per_task) + i) *. 1e-6)
        done;
        h)
      (Array.init 4 Fun.id)
  in
  let merged = Histogram.create () in
  Array.iter (fun h -> Histogram.merge ~into:merged h) parts;
  let sequential = Histogram.create () in
  for i = 1 to 4 * per_task do
    Histogram.add sequential (float_of_int i *. 1e-6)
  done;
  check_int "count equals sequential" (Histogram.count sequential)
    (Histogram.count merged);
  check "sum equals sequential" true
    (abs_float (Histogram.sum merged -. Histogram.sum sequential) < 1e-9);
  check "identical buckets" true
    (Histogram.buckets merged = Histogram.buckets sequential)

(* ---------------- blackbox shards ---------------- *)

let identity_box ?budget n =
  Box.of_function ?budget
    ~input_names:(Array.init n (Printf.sprintf "i%d"))
    ~output_names:(Array.init n (Printf.sprintf "o%d"))
    (fun a -> a)

let test_shard_accounting () =
  with_clean @@ fun () ->
  let box = identity_box ~budget:1000 4 in
  (* parent issues a few queries of its own first *)
  Instr.span ~name:"warmup" (fun () ->
      ignore (Box.query box (Bv.create 4)));
  let shards = Array.init 4 (fun _ -> Box.shard ~budget:10 box) in
  let counts =
    Par.with_pool ~jobs:4 @@ fun pool ->
    Par.map pool
      (fun s ->
        snd
          (Instr.collect (fun () ->
               Instr.span ~name:"fbdt" (fun () ->
                   for _ = 1 to 5 do
                     ignore (Box.query s (Bv.create 4))
                   done);
               Box.queries_used s)))
      shards
  in
  ignore counts;
  (* shard queries are invisible to the parent until absorbed *)
  check_int "parent unchanged before absorb" 1 (Box.queries_used box);
  Array.iter
    (fun s ->
      check_int "shard counted its own" 5 (Box.queries_used s);
      check "shard attribution" true
        (List.mem_assoc "fbdt" (Box.queries_by_span s)))
    shards;
  Array.iter (fun s -> Box.absorb box s) shards;
  check_int "absorbed total" 21 (Box.queries_used box);
  let by_span = Box.queries_by_span box in
  check_int "warmup attribution kept" 1 (List.assoc "warmup" by_span);
  check_int "worker spans summed" 20 (List.assoc "fbdt" by_span);
  check_int "attribution sums to queries_used" (Box.queries_used box)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 by_span);
  (* latency histograms merged with the counts *)
  check_int "latency weight follows" 21
    (Histogram.count (Box.query_latency box));
  Box.reset_accounting box;
  check_int "reset clears count" 0 (Box.queries_used box);
  check "reset clears attribution" true (Box.queries_by_span box = []);
  check_int "reset clears latency" 0 (Histogram.count (Box.query_latency box))

let test_strict_shard_exhaustion_in_worker () =
  let box = identity_box 4 in
  let shards =
    Array.init 3 (fun _ -> Box.shard ~budget:8 ~strict:true box)
  in
  match
    Par.with_pool ~jobs:3 @@ fun pool ->
    Par.map pool
      ~labels:(fun i -> Printf.sprintf "po:out%d" i)
      (fun (i, s) ->
        (* task 1 oversteps its slice; the others stay within it *)
        let n = if i = 1 then 9 else 8 in
        for _ = 1 to n do
          ignore (Box.query s (Bv.create 4))
        done)
      (Array.mapi (fun i s -> (i, s)) shards)
  with
  | _ -> Alcotest.fail "expected Task_error(Exhausted)"
  | exception Par.Task_error { index; label; exn; _ } ->
      check_int "output index attached" 1 index;
      Alcotest.(check string) "output label attached" "po:out1" label;
      (match exn with
      | Box.Exhausted { used; budget } ->
          check_int "refused past the slice" 8 used;
          check_int "slice budget" 8 budget
      | e -> Alcotest.failf "unexpected %s" (Printexc.to_string e));
      (* the refused query was not counted *)
      check_int "strict shard stops at its slice" 8
        (Box.queries_used shards.(1))

let test_shard_of_netlist_concurrent () =
  (* netlist-backed boxes are documented safe for concurrent queries:
     all shards agree with a direct evaluation *)
  let spec = Lr_cases.Cases.find "case_16" in
  let golden = Lr_cases.Cases.build spec in
  let box = Box.of_netlist golden in
  let rng = Rng.create 5 in
  let inputs =
    Array.init 64 (fun _ -> Bv.random rng (Box.num_inputs box))
  in
  let shards = Array.init 4 (fun _ -> Box.shard box) in
  let answers =
    Par.with_pool ~jobs:4 @@ fun pool ->
    Par.map pool (fun s -> Box.query_many s inputs) shards
  in
  let want = Array.map (Lr_netlist.Netlist.eval golden) inputs in
  Array.iter
    (fun got ->
      check "concurrent shard answers agree" true
        (Array.for_all2 Bv.equal want got))
    answers;
  Array.iter (fun s -> Box.absorb box s) shards;
  check_int "all queries accounted" (4 * 64) (Box.queries_used box)

let tests =
  [
    Alcotest.test_case "map: deterministic order" `Quick test_map_order;
    Alcotest.test_case "map: jobs=1 runs inline" `Quick test_map_inline;
    Alcotest.test_case "map: task error propagation" `Quick test_task_error;
    Alcotest.test_case "map: lowest failing index wins" `Quick
      test_lowest_index_wins;
    Alcotest.test_case "instr: concurrent collect/absorb" `Quick
      test_instr_concurrent_merge;
    Alcotest.test_case "histogram: concurrent merge" `Quick
      test_histogram_concurrent_merge;
    Alcotest.test_case "blackbox: shard accounting" `Quick
      test_shard_accounting;
    Alcotest.test_case "blackbox: strict exhaustion in worker" `Quick
      test_strict_shard_exhaustion_in_worker;
    Alcotest.test_case "blackbox: concurrent netlist shards" `Quick
      test_shard_of_netlist_concurrent;
  ]
