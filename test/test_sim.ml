(* Tests for the simulation kernel: PRNG, heap, time, engine, stats. *)

open Ra_sim

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Prng ------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr same
  done;
  check Alcotest.int "different seeds, different streams" 0 !same

let test_prng_copy_independent () =
  let a = Prng.create ~seed:9 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.bits64 a) (Prng.bits64 b);
  (* advancing one does not affect the other *)
  ignore (Prng.bits64 a);
  ignore (Prng.bits64 a);
  let va = Prng.bits64 a and vb = Prng.bits64 b in
  check Alcotest.bool "diverged after unequal draws" false (Int64.equal va vb)

let test_prng_split_independent () =
  let a = Prng.create ~seed:9 in
  let b = Prng.split a in
  let equal_draws = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr equal_draws
  done;
  check Alcotest.bool "split streams differ" true (!equal_draws < 4)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let g = Prng.create ~seed in
      let v = Prng.int g ~bound in
      v >= 0 && v < bound)

let prop_float_unit_interval =
  QCheck.Test.make ~name:"Prng.float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed in
      let v = Prng.float g in
      v >= 0. && v < 1.)

let prop_permutation_valid =
  QCheck.Test.make ~name:"Prng.permutation is a permutation" ~count:200
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, n) ->
      let g = Prng.create ~seed in
      let p = Prng.permutation g n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.length p = n && Array.for_all (fun b -> b) seen)

let test_prng_int_uniformish () =
  let g = Prng.create ~seed:5 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int g ~bound:10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket %d count %d too far from %d" i c expected)
    counts

let test_prng_bernoulli () =
  let g = Prng.create ~seed:6 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Prng.bernoulli g ~p:0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check (Alcotest.float 0.02) "bernoulli rate" 0.25 rate

let test_prng_exponential_mean () =
  let g = Prng.create ~seed:8 in
  let sum = ref 0. in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential g ~mean:3.0
  done;
  check (Alcotest.float 0.1) "exponential mean" 3.0 (!sum /. float_of_int n)

let test_prng_bytes () =
  let g = Prng.create ~seed:3 in
  let b = Prng.bytes g 1000 in
  check Alcotest.int "length" 1000 (Bytes.length b);
  (* all 256 values should appear at length 1000 with high probability for
     at least 150 distinct values *)
  let seen = Hashtbl.create 256 in
  Bytes.iter (fun c -> Hashtbl.replace seen c ()) b;
  check Alcotest.bool "byte diversity" true (Hashtbl.length seen > 150)

(* --- Heap ---------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  Heap.push h ~key:5 ~seq:0 "e";
  Heap.push h ~key:1 ~seq:1 "a";
  Heap.push h ~key:3 ~seq:2 "c";
  Heap.push h ~key:1 ~seq:3 "b";
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, _, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  check (Alcotest.list Alcotest.string) "key order, ties by seq" [ "a"; "b"; "c"; "e" ]
    (List.rev !order)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (pair int int))
    (fun entries ->
      let h = Heap.create () in
      List.iteri (fun seq (k, _) -> Heap.push h ~key:k ~seq k) entries;
      let rec drain acc =
        match Heap.pop h with Some (k, _, _) -> drain (k :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort Int.compare popped)

(* The contract both priority-queue implementations share: the pop
   sequence equals a stable sort of the pushed entries by (key, seq).
   Run against the legacy boxed Heap and the structure-of-arrays Eventq
   that replaced it on the engine hot path. *)
let prop_pop_is_stable_sort name push_all drain =
  QCheck.Test.make
    ~name:(name ^ " pop sequence = stable sort by (key, seq)")
    ~count:300
    QCheck.(list (int_range (-50) 50))
    (fun keys ->
      let entries = List.mapi (fun seq k -> (k, seq)) keys in
      let expected =
        List.stable_sort
          (fun (k1, s1) (k2, s2) ->
            match compare k1 k2 with 0 -> compare s1 s2 | c -> c)
          entries
      in
      drain (push_all entries) = expected)

let prop_heap_stable_sort =
  prop_pop_is_stable_sort "Heap"
    (fun entries ->
      let h = Heap.create () in
      List.iter (fun (k, seq) -> Heap.push h ~key:k ~seq (k, seq)) entries;
      h)
    (fun h ->
      let rec drain acc =
        match Heap.pop h with
        | Some (_, _, v) -> drain (v :: acc)
        | None -> List.rev acc
      in
      drain [])

let prop_eventq_stable_sort =
  prop_pop_is_stable_sort "Eventq"
    (fun entries ->
      let q = Eventq.create () in
      List.iter (fun (k, seq) -> Eventq.push q ~key:k ~seq (k, seq)) entries;
      q)
    (fun q ->
      let rec drain acc =
        if Eventq.is_empty q then List.rev acc
        else begin
          let v = Eventq.min_value q in
          Eventq.drop_min q;
          drain (v :: acc)
        end
      in
      drain [])

let test_eventq_min_accessors () =
  let q = Eventq.create () in
  check Alcotest.bool "empty" true (Eventq.is_empty q);
  check Alcotest.bool "min_key raises" true
    (match Eventq.min_key q with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Eventq.push q ~key:7 ~seq:0 "late";
  Eventq.push q ~key:2 ~seq:1 "early";
  check Alcotest.int "min_key" 2 (Eventq.min_key q);
  check Alcotest.int "min_seq" 1 (Eventq.min_seq q);
  check Alcotest.string "min_value" "early" (Eventq.min_value q);
  check Alcotest.int "length" 2 (Eventq.length q);
  Eventq.drop_min q;
  check Alcotest.string "next" "late" (Eventq.min_value q);
  Eventq.clear q;
  check Alcotest.bool "cleared" true (Eventq.is_empty q)

let test_heap_peek_clear () =
  let h = Heap.create () in
  check Alcotest.bool "empty" true (Heap.is_empty h);
  check Alcotest.bool "peek empty" true (Heap.peek h = None);
  Heap.push h ~key:2 ~seq:0 21;
  Heap.push h ~key:1 ~seq:1 11;
  (match Heap.peek h with
  | Some (1, 1, 11) -> ()
  | Some _ | None -> Alcotest.fail "peek should see minimum");
  check Alcotest.int "length" 2 (Heap.length h);
  Heap.clear h;
  check Alcotest.bool "cleared" true (Heap.is_empty h)

(* --- Timebase -------------------------------------------------------------- *)

let test_timebase_units () =
  check Alcotest.int "us" 1_000 (Timebase.us 1);
  check Alcotest.int "ms" 1_000_000 (Timebase.ms 1);
  check Alcotest.int "s" 1_000_000_000 (Timebase.s 1);
  check Alcotest.int "minutes" 60_000_000_000 (Timebase.minutes 1);
  check Alcotest.int "of_seconds" 1_500_000_000 (Timebase.of_seconds 1.5);
  check (Alcotest.float 1e-9) "to_seconds" 0.25 (Timebase.to_seconds (Timebase.ms 250))

let test_timebase_pp () =
  check Alcotest.string "seconds" "2.500 s" (Timebase.to_string (Timebase.ms 2500));
  check Alcotest.string "millis" "12.000 ms" (Timebase.to_string (Timebase.ms 12));
  check Alcotest.string "micros" "3.000 us" (Timebase.to_string (Timebase.us 3));
  check Alcotest.string "nanos" "42 ns" (Timebase.to_string 42);
  check Alcotest.string "zero" "0 s" (Timebase.to_string 0)

(* --- Engine ------------------------------------------------------------------ *)

let test_engine_order () =
  let eng = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule eng ~at:(Timebase.ms 5) (fun _ -> log := "b" :: !log));
  ignore (Engine.schedule eng ~at:(Timebase.ms 1) (fun _ -> log := "a" :: !log));
  ignore (Engine.schedule eng ~at:(Timebase.ms 9) (fun _ -> log := "c" :: !log));
  Engine.run eng;
  check (Alcotest.list Alcotest.string) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check Alcotest.int "clock at last event" (Timebase.ms 9) (Engine.now eng)

let test_engine_tie_order () =
  let eng = Engine.create () in
  let log = ref [] in
  let t = Timebase.ms 2 in
  ignore (Engine.schedule eng ~at:t (fun _ -> log := 1 :: !log));
  ignore (Engine.schedule eng ~at:t (fun _ -> log := 2 :: !log));
  ignore (Engine.schedule eng ~at:t (fun _ -> log := 3 :: !log));
  Engine.run eng;
  check (Alcotest.list Alcotest.int) "submission order on ties" [ 1; 2; 3 ]
    (List.rev !log)

let test_engine_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule eng ~at:(Timebase.ms 1) (fun _ -> fired := true) in
  Engine.cancel eng id;
  Engine.cancel eng id;
  check Alcotest.int "pending after cancel" 0 (Engine.pending eng);
  Engine.run eng;
  check Alcotest.bool "cancelled event did not fire" false !fired

let test_engine_cancel_after_fire () =
  let eng = Engine.create () in
  let id = Engine.schedule eng ~at:(Timebase.ms 1) (fun _ -> ()) in
  Engine.run eng;
  (* cancelling an event that already fired must not corrupt the live
     counter or leave a tombstone behind *)
  Engine.cancel eng id;
  check Alcotest.int "pending still zero" 0 (Engine.pending eng);
  let fired = ref false in
  ignore (Engine.schedule eng ~at:(Timebase.ms 2) (fun _ -> fired := true));
  check Alcotest.int "new event counted" 1 (Engine.pending eng);
  Engine.run eng;
  check Alcotest.bool "new event fired" true !fired

let test_engine_cancel_table_bounded () =
  (* A long-running simulation that keeps cancelling — both pending and
     already-fired events — must not grow internal state without bound. *)
  let eng = Engine.create () in
  let fired = ref 0 in
  let high_water = ref 0 in
  for round = 0 to 9_999 do
    let at = Timebase.ms (1 + round) in
    let keep = Engine.schedule eng ~at (fun _ -> incr fired) in
    let doomed = Engine.schedule eng ~at (fun _ -> assert false) in
    Engine.cancel eng doomed;
    Engine.run ~until:at eng;
    (* cancel after the event fired: must be a no-op *)
    Engine.cancel eng keep;
    Engine.cancel eng doomed;
    high_water := max !high_water (Engine.pending eng)
  done;
  check Alcotest.int "all live events fired" 10_000 !fired;
  check Alcotest.int "table empty after drain" 0 (Engine.pending eng);
  check Alcotest.bool
    (Printf.sprintf "table bounded by queue length (high water %d)" !high_water)
    true (!high_water <= 2)

let test_engine_run_until () =
  let eng = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule eng ~at:(Timebase.ms 1) (fun _ -> fired := 1 :: !fired));
  ignore (Engine.schedule eng ~at:(Timebase.ms 10) (fun _ -> fired := 10 :: !fired));
  Engine.run ~until:(Timebase.ms 5) eng;
  check (Alcotest.list Alcotest.int) "only early event" [ 1 ] (List.rev !fired);
  check Alcotest.int "clock advanced to horizon" (Timebase.ms 5) (Engine.now eng);
  check Alcotest.int "late event still queued" 1 (Engine.pending eng);
  Engine.run eng;
  check (Alcotest.list Alcotest.int) "late event eventually fires" [ 1; 10 ]
    (List.rev !fired)

let test_engine_past_rejected () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~at:(Timebase.ms 5) (fun _ -> ()));
  Engine.run eng;
  Alcotest.check_raises "scheduling in the past"
    (Invalid_argument "Engine.schedule: time 1000000 is before now 5000000")
    (fun () -> ignore (Engine.schedule eng ~at:(Timebase.ms 1) (fun _ -> ())))

let test_engine_nested_scheduling () =
  let eng = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule eng ~at:(Timebase.ms 1) (fun e ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule_after e ~delay:(Timebase.ms 1) (fun _ ->
                log := "inner" :: !log))));
  Engine.run eng;
  check (Alcotest.list Alcotest.string) "nested events" [ "outer"; "inner" ]
    (List.rev !log)

(* --- Channel ------------------------------------------------------------------ *)

let test_channel_ideal () =
  let eng = Engine.create () in
  let arrived = ref [] in
  let ch =
    Channel.create eng Channel.ideal
      ~deliver:(fun m -> arrived := (m, Engine.now eng) :: !arrived)
      ()
  in
  Channel.send ch "hello";
  Engine.run eng;
  (match !arrived with
  | [ ("hello", t) ] -> check Alcotest.int "base delay" (Timebase.ms 40) t
  | _ -> Alcotest.fail "expected one delivery");
  check Alcotest.int "sent" 1 (Channel.sent ch);
  check Alcotest.int "delivered" 1 (Channel.delivered ch)

let test_channel_loss () =
  let eng = Engine.create ~seed:3 () in
  let ch =
    Channel.create eng { Channel.ideal with Channel.loss = 0.5 } ~deliver:(fun _ -> ()) ()
  in
  for i = 1 to 1000 do
    Channel.send ch i
  done;
  Engine.run eng;
  let rate = float_of_int (Channel.delivered ch) /. 1000. in
  check Alcotest.bool "about half delivered" true (rate > 0.42 && rate < 0.58)

let test_channel_total_loss_and_duplicates () =
  let eng = Engine.create ~seed:4 () in
  let dead =
    Channel.create eng { Channel.ideal with Channel.loss = 1.0 } ~deliver:(fun _ -> ()) ()
  in
  Channel.send dead ();
  Engine.run eng;
  check Alcotest.int "nothing survives loss 1.0" 0 (Channel.delivered dead);
  let dup =
    Channel.create eng { Channel.ideal with Channel.duplicate = 1.0 } ~deliver:(fun _ -> ()) ()
  in
  Channel.send dup ();
  Engine.run eng;
  check Alcotest.int "always duplicated" 2 (Channel.delivered dup)

let test_channel_jitter_bounds () =
  let eng = Engine.create ~seed:5 () in
  let times = ref [] in
  let ch =
    Channel.create eng
      { Channel.ideal with Channel.jitter = Timebase.ms 20 }
      ~deliver:(fun () -> times := Engine.now eng :: !times) ()
  in
  for _ = 1 to 50 do
    Channel.send ch ()
  done;
  Engine.run eng;
  List.iter
    (fun t ->
      if t < Timebase.ms 40 || t > Timebase.ms 60 then
        Alcotest.failf "latency %d out of [40,60] ms" t)
    !times;
  check Alcotest.int "all delivered" 50 (List.length !times)

let test_channel_validation () =
  let eng = Engine.create () in
  Alcotest.check_raises "bad loss" (Invalid_argument "Channel: bad loss") (fun () ->
      ignore (Channel.create eng { Channel.ideal with Channel.loss = 1.5 } ~deliver:ignore ()))

(* --- Stats -------------------------------------------------------------------- *)

let test_stats_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check Alcotest.int "count" 8 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "variance (unbiased)" (32. /. 7.) (Stats.variance s);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.min_value s);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.max_value s);
  check (Alcotest.float 1e-9) "total" 40.0 (Stats.total s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "median" 50.5 (Stats.percentile s 50.);
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile s 0.);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile s 100.)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 0.) "mean of empty" 0. (Stats.mean s);
  Alcotest.check_raises "percentile of empty"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile s 50.))

let test_stats_wilson () =
  let lo, hi = Stats.binomial_confidence ~successes:0 ~trials:100 in
  check (Alcotest.float 1e-6) "zero successes lower bound" 0. lo;
  check Alcotest.bool "zero successes upper < 0.05" true (hi < 0.05);
  let lo, hi = Stats.binomial_confidence ~successes:50 ~trials:100 in
  check Alcotest.bool "half interval straddles 0.5" true (lo < 0.5 && hi > 0.5);
  let lo, hi = Stats.binomial_confidence ~successes:0 ~trials:0 in
  check (Alcotest.float 0.) "no data: [0,1]" 0. lo;
  check (Alcotest.float 0.) "no data: [0,1] hi" 1. hi

let test_stats_histogram () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. ];
  let h = Stats.histogram s ~bins:5 in
  check Alcotest.int "bins" 5 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  check Alcotest.int "all samples binned" 10 total

let () =
  Alcotest.run "ra_sim"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "uniformity" `Quick test_prng_int_uniformish;
          Alcotest.test_case "bernoulli" `Quick test_prng_bernoulli;
          Alcotest.test_case "exponential" `Quick test_prng_exponential_mean;
          Alcotest.test_case "bytes" `Quick test_prng_bytes;
          qtest prop_int_in_bounds;
          qtest prop_float_unit_interval;
          qtest prop_permutation_valid;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "peek/clear" `Quick test_heap_peek_clear;
          qtest prop_heap_sorted;
          qtest prop_heap_stable_sort;
        ] );
      ( "eventq",
        [
          Alcotest.test_case "min accessors" `Quick test_eventq_min_accessors;
          qtest prop_eventq_stable_sort;
        ] );
      ( "timebase",
        [
          Alcotest.test_case "units" `Quick test_timebase_units;
          Alcotest.test_case "pretty printing" `Quick test_timebase_pp;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_order;
          Alcotest.test_case "tie order" `Quick test_engine_tie_order;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "cancel after fire" `Quick
            test_engine_cancel_after_fire;
          Alcotest.test_case "cancel table bounded" `Quick
            test_engine_cancel_table_bounded;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
        ] );
      ( "channel",
        [
          Alcotest.test_case "ideal" `Quick test_channel_ideal;
          Alcotest.test_case "loss" `Quick test_channel_loss;
          Alcotest.test_case "total loss & duplicates" `Quick
            test_channel_total_loss_and_duplicates;
          Alcotest.test_case "jitter bounds" `Quick test_channel_jitter_bounds;
          Alcotest.test_case "validation" `Quick test_channel_validation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "moments" `Quick test_stats_moments;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "wilson interval" `Quick test_stats_wilson;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
    ]
