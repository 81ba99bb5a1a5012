(* Order statistics over measured samples.  Percentiles are nearest-rank
   (an actual sample, never an interpolation between two), quartiles
   follow Python's [statistics.quantiles(data, n=4)] default
   ("exclusive") method so spreads printed here match the ones
   recomputed in Python from the raw values. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let check_nonempty name xs = if xs = [] then invalid_arg (name ^ ": no samples")

(* Nearest rank: the smallest sample with at least p% of the samples at
   or below it.  The slack absorbs float noise in p*n (99.9% of 10000 is
   9990, not 9991). *)
let rank p n = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))

let percentile p xs =
  check_nonempty "Sample.percentile" xs;
  let a = sorted xs in
  let n = Array.length a in
  a.(max 1 (min n (rank p n)) - 1)

let median xs =
  check_nonempty "Sample.median" xs;
  let a = sorted xs in
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  check_nonempty "Sample.quartiles" xs;
  let a = sorted xs in
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* The highest of the usual reporting levels whose nearest-rank value
   still leaves at least ten samples strictly above its rank, so a tail
   figure is never one or two outliers.  [None] when even the median
   has fewer than ten samples beyond it. *)
let levels = [ 99.99; 99.9; 99.; 95.; 90.; 50. ]

let tail_percentile xs =
  let n = List.length xs in
  List.find_map
    (fun p ->
      if n - rank p n >= 10 then Some (p, percentile p xs) else None)
    levels

let geomean xs =
  check_nonempty "Sample.geomean" xs;
  if List.exists (fun x -> not (x > 0.)) xs then
    invalid_arg "Sample.geomean: non-positive sample";
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs
       /. float_of_int (List.length xs))
