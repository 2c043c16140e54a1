module Bv = Lr_bitvec.Bv

type t = {
  arity : int;
  query : Bv.t array -> bool array;
  query_toggles : count:int -> int64 array -> int array -> int64 array;
  exhausted : unit -> bool;
}

(* The toggled blocks materialised as vectors and asked in one [query]
   call, the answers packed back into lane words. *)
let of_fun ~arity f =
  let query = Array.map f in
  let query_toggles ~count base free =
    let patterns = Bv.of_lanes count base in
    let toggled i =
      Array.map
        (fun a ->
          let a = Bv.copy a in
          Bv.flip a i;
          a)
        patterns
    in
    let out =
      query (Array.concat (patterns :: Array.to_list (Array.map toggled free)))
    in
    Array.init (1 + Array.length free) (fun b ->
        let acc = ref 0L in
        for k = 0 to count - 1 do
          if out.((b * count) + k) then
            acc := Int64.logor !acc (Int64.shift_left 1L k)
        done;
        !acc)
  in
  { arity; query; query_toggles; exhausted = (fun () -> false) }
