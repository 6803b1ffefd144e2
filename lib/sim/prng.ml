type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* SplitMix64: used only to expand a seed into the xoshiro state, as
   recommended by the xoshiro authors. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  { s0; s1; s2; s3 }

let copy g = { s0 = g.s0; s1 = g.s1; s2 = g.s2; s3 = g.s3 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 g =
  let open Int64 in
  let result = mul (rotl (mul g.s1 5L) 7) 9L in
  let t = shift_left g.s1 17 in
  g.s2 <- logxor g.s2 g.s0;
  g.s3 <- logxor g.s3 g.s1;
  g.s1 <- logxor g.s1 g.s2;
  g.s0 <- logxor g.s0 g.s3;
  g.s2 <- logxor g.s2 t;
  g.s3 <- rotl g.s3 45;
  result

let split g =
  let seed = Int64.to_int (bits64 g) in
  create ~seed

(* Rejection sampling over the top bits keeps the distribution exactly
   uniform for any bound, not just powers of two. *)
let int g ~bound =
  assert (bound > 0);
  let mask = Int64.of_int max_int in
  let rec loop () =
    let r = Int64.to_int (Int64.logand (bits64 g) mask) in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then loop () else v
  in
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (bits64 g) (Int64.of_int (bound - 1)))
  else loop ()

let float g =
  let bits = Int64.shift_right_logical (bits64 g) 11 in
  Int64.to_float bits *. 0x1.0p-53

let bernoulli g ~p =
  assert (p >= 0. && p <= 1.);
  float g < p

let exponential g ~mean =
  let u = 1.0 -. float g in
  -.mean *. log u

let shuffle_in_place g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place g a;
  a

(* bounds: b has exactly n bytes and i < n; int ~bound:256 yields a value
   in [0, 256) so unsafe_chr is total.
   cross-check: determinism and distribution of the generator are pinned
   by the fixed-seed stream tests in test/test_sim.ml. *)
let bytes g n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (int g ~bound:256))
  done;
  b

let state_bytes = 32

let to_bytes g =
  let b = Bytes.create state_bytes in
  Bytes.set_int64_be b 0 g.s0;
  Bytes.set_int64_be b 8 g.s1;
  Bytes.set_int64_be b 16 g.s2;
  Bytes.set_int64_be b 24 g.s3;
  b

let set_bytes g b =
  if Bytes.length b <> state_bytes then invalid_arg "Prng.set_bytes: need 32 bytes";
  g.s0 <- Bytes.get_int64_be b 0;
  g.s1 <- Bytes.get_int64_be b 8;
  g.s2 <- Bytes.get_int64_be b 16;
  g.s3 <- Bytes.get_int64_be b 24
