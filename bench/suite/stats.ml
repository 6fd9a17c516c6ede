(* Order statistics and the run-comparison rule.

   Within a run, a latency percentile is reported only when at least
   ten samples lie beyond it: a p99 from 300 samples is the third
   largest value, which says nothing stable about the tail.  Across
   runs, every metric is summarised by its median and quartiles; the
   quartiles follow Python's [statistics.quantiles(values, n=4)]
   (the "exclusive" method), so a spread computed here matches one
   computed from the same values by any script that uses Python. *)

(* Linear interpolation between closest ranks on a sorted array. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile_sorted: empty";
  let x = p *. float_of_int (n - 1) in
  let i = int_of_float x in
  if i >= n - 1 then a.(n - 1)
  else
    let f = x -. float_of_int i in
    a.(i) +. (f *. (a.(i + 1) -. a.(i)))

(* Samples strictly beyond the [p] quantile of [n] samples. *)
let beyond ~n p = n - int_of_float (Float.ceil (p *. float_of_int n))

let tail_ok ~n p = n > 0 && beyond ~n p >= 10

let sorted_copy a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let median values = percentile_sorted (sorted_copy values) 0.5

(* Python's statistics.quantiles(data, n=4, method="exclusive"). *)
let quartiles values =
  let d = sorted_copy values in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stats.quartiles: empty";
  if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type summary = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
  spread_pct : float;  (** (q3 - q1) / median, in percent *)
}

let summarize values =
  let d = sorted_copy values in
  let n = Array.length d in
  if n = 0 then invalid_arg "Stats.summarize: empty";
  let q1, _, q3 = quartiles d in
  let median = percentile_sorted d 0.5 in
  let spread_pct = if median = 0.0 then 0.0 else (q3 -. q1) /. Float.abs median *. 100.0 in
  { n; median; q1; q3; min = d.(0); max = d.(n - 1); spread_pct }

(* ------------------------------------------------------------------ *)
(* Comparing two sets of runs of the same benchmark. *)

type better = Higher | Lower

type verdict = Improved | Regressed | Unresolved | Within_bound

let verdict_to_string = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Within_bound -> "within-bound"

let is_better better ~head ~base =
  match better with Higher -> head > base | Lower -> head < base

(* How much worse [head] is than [base], as a share of [base]; 0 when
   it is not worse.  A zero base makes any worsening infinite, which
   is what a bound of 0 ("any increase regresses") needs. *)
let worse_share better ~base ~head =
  let d = match better with Higher -> base -. head | Lower -> head -. base in
  if d <= 0.0 then 0.0 else if base = 0.0 then Float.infinity else d /. Float.abs base

(* A gain counts only over at least ten run pairs, if HEAD wins at
   least 9 of every 10 (ties count for neither side) and the medians
   differ by more than BASE's own interquartile distance: less than
   that is within the noise of BASE's own runs.  A regression is a median worse by more
   than the bound.  When either side's spread exceeds the bound the
   answer is unresolved, unless every HEAD run beats every BASE run. *)
let verdict ~better ~bound ~base ~head =
  let sb = summarize base and sh = summarize head in
  let pairs = min (Array.length base) (Array.length head) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if is_better better ~head:head.(i) ~base:base.(i) then incr wins
  done;
  let gap = Float.abs (sh.median -. sb.median) in
  let head_better = is_better better ~head:sh.median ~base:sb.median in
  let all_better =
    Array.for_all (fun h -> Array.for_all (fun b -> is_better better ~head:h ~base:b) base) head
  in
  if head_better && pairs >= 10 && !wins * 10 >= 9 * pairs && gap > sb.q3 -. sb.q1 then Improved
  else if worse_share better ~base:sb.median ~head:sh.median > bound then Regressed
  else if (sb.spread_pct > bound *. 100.0 || sh.spread_pct > bound *. 100.0) && not all_better
  then Unresolved
  else Within_bound
