(* The rule a change must pass to claim a gain or escape a regression
   on one (metric, workload) row, given runs of the parent and the
   change paired by seed.  Each pair gives one relative change, how much
   worse the change's run is than its parent's as a share of the
   parent's; pairing removes what the seed alone moves, and the spread
   of these per-pair changes is the noise a claim must clear:

   - improved: the change wins at least 9 of every 10 pairs (ties count
     for neither side) and the median relative change is better by more
     than the interquartile range of the relative changes;
   - unresolved: fewer than 10 pairs, or that range is wider than the
     bound and the change does not win every pair;
   - regressed: the median relative change is worse than the bound;
   - unchanged: otherwise.

   A simulated metric repeats bit for bit for a given seed, so its pairs
   are judged with the [exact] bound: any worsening beyond float
   summation slack is a regression. *)

type direction = Lower | Higher

type t = Improved | Unchanged | Regressed | Unresolved

let label = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let min_pairs = 10
let exact = 1e-9

let better direction a b =
  match direction with Lower -> a < b | Higher -> a > b

(* How much worse [change] is than [parent], as a share of [parent]. *)
let worsening direction ~parent ~change =
  let d = match direction with Lower -> change -. parent | Higher -> parent -. change in
  d /. Float.max (Float.abs parent) Float.min_float

(* The median relative worsening over the pairs and its interquartile
   range. *)
let pair_changes direction ~parent ~change =
  let ds = List.map2 (fun parent change -> worsening direction ~parent ~change) parent change in
  let q1, q3 = Sample.quartiles ds in
  (Sample.median ds, q3 -. q1)

let decide ~direction ~bound ~parent ~change =
  let n = List.length parent in
  if n <> List.length change then invalid_arg "Verdict.decide: unpaired runs";
  if n < min_pairs then Unresolved
  else
    let median, noise = pair_changes direction ~parent ~change in
    let wins =
      List.fold_left2 (fun acc p c -> if better direction c p then acc + 1 else acc) 0 parent change
    in
    if 10 * wins >= 9 * n && median < 0. && -.median > noise then Improved
    else if noise > bound && wins < n then Unresolved
    else if median > bound then Regressed
    else Unchanged
