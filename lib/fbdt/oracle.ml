module Bv = Lr_bitvec.Bv

type t = {
  arity : int;
  query : Bv.t array -> bool array;
  query_blocks : count:int -> int64 array array -> int64 array;
  exhausted : unit -> bool;
}

let blocks_via query ~count blocks =
  let out =
    query (Array.concat (List.map (Bv.of_lanes count) (Array.to_list blocks)))
  in
  Array.init (Array.length blocks) (fun b ->
      let acc = ref 0L in
      for k = 0 to count - 1 do
        if out.((b * count) + k) then
          acc := Int64.logor !acc (Int64.shift_left 1L k)
      done;
      !acc)

let of_fun ~arity f =
  let query = Array.map f in
  {
    arity;
    query;
    query_blocks = blocks_via query;
    exhausted = (fun () -> false);
  }
