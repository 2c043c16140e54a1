(* How [diff] rules one (end-to-end metric, workload) row. *)

type t = Better | Worse | Unchanged | Unresolved

let to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* Relative change of the median. *)
let change ~old ~new_ =
  let m0 = Stats.median old and m1 = Stats.median new_ in
  if m0 = m1 then 0.0 else (m1 -. m0) /. Float.abs m0

(* The same, signed so that positive is worse. *)
let worse_by ~better ~old ~new_ =
  match better with
  | Manifest.Lower -> change ~old ~new_
  | Higher -> -.change ~old ~new_

(* An [exact] metric repeats to the last digit for one seed, so any move
   of its median is real. Otherwise the samples are reps of one run and
   share that run's host drift: a row whose spread (IQR over median, the
   wider side) exceeds the bound cannot be told from noise and is
   [Unresolved], and past that the median must move by more than the
   bound, either way, to count. *)
let rule ~exact ~better ~bound ~old ~new_ =
  let d = worse_by ~better ~old ~new_ in
  let bound = if exact then 0.0 else bound in
  if (not exact) && Float.max (Stats.rel_spread old) (Stats.rel_spread new_) > bound
  then Unresolved
  else if d > bound then Worse
  else if d < -.bound then Better
  else Unchanged
