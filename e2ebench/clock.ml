(* The benchmark's one clock: bechamel's CLOCK_MONOTONIC, in nanoseconds.
   Spans, latencies and the open-loop schedule all read it, so they are
   comparable with each other and immune to wall-clock steps. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6
let us_of_ns ns = float_of_int ns /. 1e3
let ns_of_s s = int_of_float (s *. 1e9)

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)
