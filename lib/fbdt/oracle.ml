module Bv = Lr_bitvec.Bv

type t = {
  arity : int;
  query : Bv.t array -> bool array;
  query_words : count:int -> int64 array -> int64;
  exhausted : unit -> bool;
}

let words_via query ~count words =
  let out = query (Bv.of_lanes count words) in
  let acc = ref 0L in
  Array.iteri
    (fun k b -> if b then acc := Int64.logor !acc (Int64.shift_left 1L k))
    out;
  !acc

let of_fun ~arity f =
  let query = Array.map f in
  {
    arity;
    query;
    query_words = words_via query;
    exhausted = (fun () -> false);
  }
