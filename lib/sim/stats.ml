type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable sum : float;
  mutable samples : float list; (* reverse order of insertion *)
  mutable sorted : float array option; (* cache, invalidated by add *)
}

let create () = { n = 0; mean = 0.; m2 = 0.; sum = 0.; samples = []; sorted = None }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  t.sum <- t.sum +. x;
  t.samples <- x :: t.samples;
  t.sorted <- None

let count t = t.n

let mean t = if t.n = 0 then 0. else t.mean

let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)

let sorted_samples t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list t.samples in
    Array.sort Float.compare a;
    t.sorted <- Some a;
    a

let min_value t =
  if t.n = 0 then invalid_arg "Stats.min_value: empty";
  (sorted_samples t).(0)

let max_value t =
  if t.n = 0 then invalid_arg "Stats.max_value: empty";
  let a = sorted_samples t in
  a.(Array.length a - 1)

let percentile t p =
  if t.n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let a = sorted_samples t in
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let total t = t.sum

(* Wilson score interval: well-behaved near 0 and 1, unlike the normal
   approximation, which matters for rare-escape experiments. *)
let binomial_confidence ~successes ~trials =
  if trials = 0 then (0., 1.)
  else begin
    let z = 1.959964 in
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1. +. (z2 /. n) in
    let center = (p +. (z2 /. (2. *. n))) /. denom in
    let spread =
      z *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n))) /. denom
    in
    (Float.max 0. (center -. spread), Float.min 1. (center +. spread))
  end

let histogram t ~bins =
  if t.n = 0 || bins <= 0 then [||]
  else begin
    let lo = min_value t and hi = max_value t in
    let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1. in
    let counts = Array.make bins 0 in
    List.iter
      (fun x ->
        let i = int_of_float ((x -. lo) /. width) in
        let i = if i >= bins then bins - 1 else i in
        counts.(i) <- counts.(i) + 1)
      t.samples;
    Array.mapi
      (fun i c ->
        let b_lo = lo +. (float_of_int i *. width) in
        (b_lo, b_lo +. width, c))
      counts
  end
