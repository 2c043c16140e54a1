(* Order statistics for the ledger. [quartiles] follows Python's
   [statistics.quantiles(data, n=4)] (the default "exclusive" method)
   exactly, so a spread computed here and one computed by a script over
   the same samples agree to the last digit. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let quartiles xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then invalid_arg "Stats.quartiles: no samples"
  else if n = 1 then (d.(0), d.(0), d.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then d.(n / 2)
  else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.0

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

(* IQR as a share of the median; 0 when the median is 0 (a metric that
   reads 0 has no spread to speak of) *)
let rel_spread xs =
  let m = median xs in
  if m = 0.0 then 0.0 else iqr xs /. Float.abs m
