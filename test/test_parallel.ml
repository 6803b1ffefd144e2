(* The Ra_parallel determinism contract: fan-out must be invisible in the
   results — same bytes whatever the jobs count — and the pool must stay
   usable through nesting and task exceptions. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let test_init_matches_sequential () =
  let seq = Array.init 257 (fun i -> (i * 31) mod 97) in
  let par = Ra_parallel.parallel_init ~jobs:4 257 (fun i -> (i * 31) mod 97) in
  check (Alcotest.array Alcotest.int) "ordered results" seq par;
  check (Alcotest.array Alcotest.int) "empty" [||]
    (Ra_parallel.parallel_init ~jobs:4 0 (fun _ -> assert false))

let test_map_preserves_order () =
  let input = List.init 100 string_of_int in
  check
    (Alcotest.list Alcotest.string)
    "list map" input
    (Ra_parallel.parallel_list_map ~jobs:4 Fun.id input)

let test_seeded_init_jobs_invariant () =
  let draw prng _i = Ra_sim.Prng.int prng ~bound:1_000_000_000 in
  let one = Ra_parallel.seeded_init ~jobs:1 ~seed:99 64 draw in
  let four = Ra_parallel.seeded_init ~jobs:4 ~seed:99 64 draw in
  check (Alcotest.array Alcotest.int) "stream per index" one four

let test_nested_call_degrades () =
  let out =
    Ra_parallel.parallel_init ~jobs:4 8 (fun i ->
        (* Alcotest.check is not domain-safe: record the flag here and
           check it on the main domain *)
        let inside = Ra_parallel.running_inside_task () in
        let inner = Ra_parallel.parallel_init ~jobs:4 5 (fun j -> i * 10 + j) in
        (inside, Array.fold_left ( + ) 0 inner))
  in
  check Alcotest.bool "inside task" true (Array.for_all fst out);
  check Alcotest.bool "outside task" false (Ra_parallel.running_inside_task ());
  let expect = Array.init 8 (fun i -> (i * 50) + 10) in
  check (Alcotest.array Alcotest.int) "nested results" expect (Array.map snd out)

let test_exception_propagates () =
  (try
     ignore
       (Ra_parallel.parallel_init ~jobs:4 50 (fun i ->
            if i mod 7 = 3 then failwith (string_of_int i) else i));
     Alcotest.fail "no exception raised"
   with Failure m -> check Alcotest.string "lowest failing index" "3" m);
  (* pool still works after a failed batch *)
  let a = Ra_parallel.parallel_init ~jobs:4 20 (fun i -> i) in
  check Alcotest.int "pool alive" 19 a.(19)

(* The tentpole acceptance test: a full (reduced-trials) Table 1 computed on
   four domains must be byte-for-byte the table computed on one. *)
let test_table1_jobs_invariant () =
  let render jobs = Ra_experiments.Table1.render ~jobs ~trials:3 ~seed:5 () in
  check Alcotest.string "Table1 bytes" (render 1) (render 4)

let test_detection_rate_jobs_invariant () =
  let rate jobs =
    Ra_experiments.Runs.detection_rate ~jobs Ra_experiments.Runs.default_setup
      ~scheme:Ra_core.Scheme.smart
      ~adversary:
        (Ra_experiments.Runs.Malicious
           { behavior = Ra_malware.Malware.Static; block = 40 })
      ~trials:8
  in
  let r1, (lo1, hi1) = rate 1 in
  let r4, (lo4, hi4) = rate 4 in
  check (Alcotest.float 0.) "rate" r1 r4;
  check (Alcotest.float 0.) "interval lo" lo1 lo4;
  check (Alcotest.float 0.) "interval hi" hi1 hi4

let test_chaos_jobs_invariant () =
  let run jobs =
    Ra_experiments.Chaos.render (Ra_experiments.Chaos.run ~jobs ~trials:7 ())
  in
  check Alcotest.string "chaos summary bytes" (run 1) (run 4)

(* Satellite: ?chunk only changes how indices are grouped into pool
   tasks, never what lands where. *)
let prop_chunked_equals_unchunked =
  QCheck.Test.make ~name:"chunked init = unchunked init, any n/chunk/jobs"
    ~count:100
    QCheck.(triple (int_bound 200) (int_range 1 64) (int_range 1 4))
    (fun (n, chunk, jobs) ->
      let f i = (i * 2654435761) lxor (i lsl 7) in
      let plain = Ra_parallel.parallel_init ~jobs n f in
      let chunked = Ra_parallel.parallel_init ~jobs ~chunk n f in
      plain = Array.init n f && chunked = plain)

let test_chunk_validation () =
  (try
     ignore (Ra_parallel.parallel_init ~jobs:2 ~chunk:0 4 Fun.id);
     Alcotest.fail "chunk 0 accepted"
   with Invalid_argument _ -> ());
  (* chunk larger than n degenerates to one task *)
  let a = Ra_parallel.parallel_init ~jobs:4 ~chunk:1000 5 Fun.id in
  check (Alcotest.array Alcotest.int) "oversized chunk" [| 0; 1; 2; 3; 4 |] a

let test_default_jobs_override () =
  let before = Ra_parallel.default_jobs () in
  check Alcotest.bool "at least one" true (before >= 1);
  Ra_parallel.set_default_jobs 3;
  check Alcotest.int "override" 3 (Ra_parallel.default_jobs ());
  Ra_parallel.set_default_jobs 0;
  check Alcotest.int "clamped" 1 (Ra_parallel.default_jobs ())

let () =
  Alcotest.run "ra_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "init = sequential" `Quick test_init_matches_sequential;
          Alcotest.test_case "map order" `Quick test_map_preserves_order;
          Alcotest.test_case "nested degrades" `Quick test_nested_call_degrades;
          Alcotest.test_case "exceptions" `Quick test_exception_propagates;
          Alcotest.test_case "chunk validation" `Quick test_chunk_validation;
          qtest prop_chunked_equals_unchunked;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_override;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seeded streams" `Quick test_seeded_init_jobs_invariant;
          Alcotest.test_case "detection rate" `Quick
            test_detection_rate_jobs_invariant;
          Alcotest.test_case "Table 1 byte-for-byte" `Slow
            test_table1_jobs_invariant;
          Alcotest.test_case "chaos summary byte-for-byte" `Quick
            test_chaos_jobs_invariant;
        ] );
    ]
