(* Order statistics for the benchmark's reports and its steadiness checks.
   Unlike Ra_sim.Stats (linear interpolation), percentiles here are nearest
   rank, so "samples beyond" is an exact count, and quartiles follow
   Python's statistics.quantiles. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Quartiles by the "exclusive" method, the default of Python's
   [statistics.quantiles(values, n=4)], so spreads computed here match the
   ones an outside check computes from the same values. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let m = ld + 1 and n = 4 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((s.(j - 1) *. float_of_int (n - delta)) +. (s.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)

(* Distance between the first and third quartile as a share of the median. *)
let spread a =
  let q1, _, q3 = quartiles a in
  let med = median a in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med

(* 1-based nearest rank of the [p]th percentile among [n] samples; the
   epsilon keeps 99.9% of 10000 at rank 9990 despite float rounding. *)
let rank n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))

(* Nearest-rank percentile of an already sorted sample. *)
let percentile s p =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  s.(max 0 (min (n - 1) (rank n p - 1)))

(* Samples strictly above the nearest-rank [p]th percentile. *)
let beyond n p = n - rank n p

(* The highest of the usual percentiles that still has at least ten samples
   beyond it: a tail estimate resting on a single outlier is noise. *)
let tail_percentile n =
  List.find_opt (fun p -> beyond n p >= 10) [ 99.9; 99.; 90.; 75.; 50. ]

type summary = { count : int; p50 : float; p99 : float; p999 : float; max : float }

let summarize a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then { count = 0; p50 = 0.; p99 = 0.; p999 = 0.; max = 0. }
  else
    {
      count = n;
      p50 = median s;
      p99 = percentile s 99.;
      p999 = percentile s 99.9;
      max = s.(n - 1);
    }
