module Bv = Lr_bitvec.Bv
module Box = Lr_blackbox.Blackbox

type t = {
  arity : int;
  query_blocks : count:int -> int64 array array -> int64 array;
  query_toggles : count:int -> int64 array -> int array -> int64 array;
  exhausted : unit -> bool;
}

(* Every block materialised as vectors and mapped through [f] in order,
   the answers packed back into lane words. *)
let of_fun ~arity f =
  let query_blocks ~count blocks =
    Array.map
      (fun words ->
        let acc = ref 0L in
        Array.iteri
          (fun k a -> if f a then acc := Int64.logor !acc (Int64.shift_left 1L k))
          (Bv.of_lanes count words);
        !acc)
      blocks
  in
  let query_toggles ~count base free =
    query_blocks ~count
      (Array.append [| base |]
         (Array.map
            (fun i ->
              let w = Array.copy base in
              w.(i) <- Int64.lognot w.(i);
              w)
            free))
  in
  { arity; query_blocks; query_toggles; exhausted = (fun () -> false) }

(* One output's words of the box's answers, the blocks translated to
   full assignments on the way in. *)
let of_box ?(to_full = Fun.id) ?toggles ~arity box ~output =
  let toggles =
    match toggles with
    | Some t -> t
    | None -> Array.init arity (fun i -> [| i |])
  in
  let output_words = Array.map (fun outs -> outs.(output)) in
  {
    arity;
    query_blocks =
      (fun ~count blocks ->
        output_words (Box.query_blocks box ~count (Array.map to_full blocks)));
    query_toggles =
      (fun ~count base free ->
        output_words
          (Box.query_toggles box ~count (to_full base)
             (Array.map (Array.get toggles) free)));
    exhausted = (fun () -> Box.exhausted box);
  }
