(* Tests for the benchmark's own machinery: order statistics, span self
   time, open-loop timing, the bound judge and BENCHMARK.json. *)

open E2e

let close = Alcotest.float 1e-9

(* --- order statistics ------------------------------------------------------ *)

let medians_and_quartiles () =
  Alcotest.check close "odd median" 3. (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.check close "even median" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  (* statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0] *)
  let q1, _, q3 = Stats.quartiles [| 40.; 10.; 20. |] in
  Alcotest.check close "small q1" 10. q1;
  Alcotest.check close "small q3" 40. q3;
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (Array.init 10 (fun i -> float_of_int (i + 1))))

let percentile_rule () =
  let s = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "nearest-rank p50" 50. (Stats.percentile s 50.);
  Alcotest.check close "nearest-rank p99" 99. (Stats.percentile s 99.);
  Alcotest.(check int) "p99 of 1000 leaves 10 beyond" 10 (Stats.beyond 1000 99.);
  let tail n = Stats.tail_percentile n in
  Alcotest.(check (option (float 0.))) "1000 samples support p99" (Some 99.) (tail 1000);
  Alcotest.(check (option (float 0.))) "999 do not" (Some 90.) (tail 999);
  Alcotest.(check (option (float 0.))) "10000 support p99.9" (Some 99.9) (tail 10_000);
  Alcotest.(check (option (float 0.))) "20 support only the median" (Some 50.) (tail 20);
  Alcotest.(check (option (float 0.))) "19 support nothing" None (tail 19)

(* --- spans ---------------------------------------------------------------- *)

let span ~id ~parent name start_ns stop_ns =
  { Trace.id; name; parent; req = 0; start_ns; stop_ns; alloc_w = 0. }

let self_time () =
  let layers =
    Trace.self_times
      [
        span ~id:0 ~parent:(-1) "outer" 0 100;
        span ~id:1 ~parent:0 "inner" 10 40;
        span ~id:2 ~parent:0 "inner" 50 60;
        span ~id:3 ~parent:1 "leaf" 15 20;
      ]
  in
  let self name = (List.assoc name layers).Trace.self_ns in
  Alcotest.(check int) "outer minus its children" 60 (self "outer");
  Alcotest.(check int) "inner minus its child, both calls" 35 (self "inner");
  Alcotest.(check int) "leaf" 5 (self "leaf");
  Alcotest.(check int) "calls" 2 (List.assoc "inner" layers).Trace.calls;
  Alcotest.(check int) "self times partition the outer span" 100
    (List.fold_left (fun a (_, l) -> a + l.Trace.self_ns) 0 layers)

let recorded_spans () =
  Trace.reset ();
  Trace.enabled := true;
  let r =
    Trace.with_req 7 (fun () ->
        Trace.span "a" (fun () -> Trace.span "b" (fun () -> 1) + Trace.span "b" (fun () -> 2)))
  in
  (try Trace.span "c" (fun () -> failwith "boom") with Failure _ -> ());
  Trace.enabled := false;
  ignore (Trace.span "off" (fun () -> ()));
  let spans = Trace.spans () in
  Alcotest.(check int) "value passes through" 3 r;
  Alcotest.(check (list string)) "completion order, nothing while off" [ "b"; "b"; "a"; "c" ]
    (List.map (fun s -> s.Trace.name) spans);
  let a = List.find (fun s -> s.Trace.name = "a") spans in
  List.iter
    (fun s ->
      if s.Trace.name = "b" then begin
        Alcotest.(check int) "parent" a.Trace.id s.Trace.parent;
        Alcotest.(check int) "request id" 7 s.Trace.req
      end)
    spans;
  Alcotest.(check int) "an exception still closes its span" (-1)
    (List.find (fun s -> s.Trace.name = "c") spans).Trace.parent

(* --- open-loop timing ------------------------------------------------------ *)

(* A server that stalls [stall_s] before reading anything, then acks every
   submit. An open-loop client must keep sending on schedule through the
   stall, and count every latency from the due time.
   ralint: allow P3 — a forked stand-in server on a loopback socket *)
let stalling_server ~stall_s =
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 4;
  let port = match Unix.getsockname listen with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  match Unix.fork () with
  | 0 ->
      let fd, _ = Unix.accept listen in
      Unix.sleepf stall_s;
      let reader = Ra_core.Frame.Reader.create () and buf = Bytes.create 4096 in
      let rec serve () =
        match Unix.read fd buf 0 4096 with
        | 0 -> ()
        | n ->
            Ra_core.Frame.Reader.feed reader ~len:n buf;
            let rec pump () =
              match Ra_core.Frame.Reader.next reader with
              | Ra_core.Frame.Reader.Frame p ->
                  (match Ra_server.Wire.decode_request p with
                  | Ok (Ra_server.Wire.Submit { device; seq; _ }) ->
                      let f =
                        Ra_core.Frame.seal_stream
                          (Ra_server.Wire.encode_response (Ra_server.Wire.Ack { device; seq }))
                      in
                      ignore (Unix.write fd f 0 (Bytes.length f))
                  | _ -> ());
                  pump ()
              | _ -> ()
            in
            pump ();
            serve ()
        | exception Unix.Unix_error _ -> ()
      in
      serve ();
      Unix._exit 0
  | pid ->
      Unix.close listen;
      (port, pid)

(* ralint: allow P3 — reaps the stand-in server *)
let open_loop_stall () =
  let stall_ms = 500 and step_ms = 20 and n = 10 in
  let port, pid = stalling_server ~stall_s:(float_of_int stall_ms /. 1e3) in
  let requests =
    Array.init n (fun k ->
        Client.request
          ~due_ns:(k * step_ms * 1_000_000)
          (Client.Report { Ra_server.Loadgen.device = "node-00000"; seq = k + 1; report = Bytes.of_string "r" }))
  in
  let res =
    Client.run ~port ~connections:1 ~requests ~retry_ns:5_000_000 ~give_up_ns:10_000_000_000
  in
  ignore (Unix.waitpid [] pid);
  Alcotest.(check (option string)) "all answered" None res.Client.error;
  Array.iteri
    (fun k (o : Client.outcome) ->
      let due = requests.(k).Client.due_ns in
      (* a closed loop would hold request 1 until ~480 ms past its due time *)
      if o.sent_ns - due > 200_000_000 then
        Alcotest.failf "request %d sent %d ms late: the client waited for the stall" k
          ((o.sent_ns - due) / 1_000_000);
      (* the stall ends ~500 ms after the connection opened, so request k
         waited at least until then, counted from its own due time *)
      if o.done_ns - due < ((stall_ms - (k * step_ms) - 30) * 1_000_000) then
        Alcotest.failf "request %d latency %d ms hides the stall" k ((o.done_ns - due) / 1_000_000))
    res.Client.outcomes;
  let first = res.Client.outcomes.(0) in
  Alcotest.(check bool) "first request carries the whole stall" true
    (first.Client.done_ns - requests.(0).Client.due_ns >= (stall_ms - 30) * 1_000_000)

(* --- judging two sets of runs ---------------------------------------------- *)

let judge_reports_every_pair () =
  let m name lower_better = { Spec.name; unit_ = "ms"; lower_better; bound = Some 0.1 } in
  let spec =
    {
      Spec.workloads = [ ("w1", "a"); ("w2", "b") ];
      end_to_end = [ m "lat" true; m "rate" false ];
      per_layer = [];
    }
  in
  let base _ _ = [ 100.; 100.; 100. ] in
  (* w1 gets slower (lat up 50%), w2 loses rate (down 50%); the rest hold *)
  let cand w metric =
    match (w, metric) with
    | "w1", "lat" -> [ 150.; 150.; 150. ]
    | "w2", "rate" -> [ 50.; 50.; 50. ]
    | "w1", "rate" -> [ 200.; 200.; 200. ]
    | _ -> [ 105.; 105.; 105. ]
  in
  let rows = Spec.judge spec ~base ~cand in
  Alcotest.(check int) "every pair judged" 4 (List.length rows);
  Alcotest.(check (list (pair string string))) "both regressions reported"
    [ ("w1", "lat"); ("w2", "rate") ]
    (List.filter_map (fun r -> if r.Spec.ok then None else Some (r.Spec.workload, r.Spec.metric)) rows);
  let missing = Spec.judge spec ~base ~cand:(fun _ _ -> []) in
  Alcotest.(check bool) "missing runs fail" true (List.for_all (fun r -> not r.Spec.ok) missing)

(* --- BENCHMARK.json ---------------------------------------------------------- *)

let spec () =
  match Spec.load "../BENCHMARK.json" with
  | Ok s -> s
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

let benchmark_json () =
  let s = spec () in
  let names l = List.map (fun m -> (m.Spec.name, m.Spec.unit_)) l in
  Alcotest.(check (list string)) "workloads" Catalog.workloads (List.map fst s.Spec.workloads);
  Alcotest.(check (list (pair string string))) "end-to-end metrics" Catalog.end_to_end
    (names s.Spec.end_to_end);
  Alcotest.(check (list (pair string string))) "per-layer metrics"
    (List.map (fun (n, u, _) -> (n, u)) Catalog.per_layer)
    (names s.Spec.per_layer);
  List.iter
    (fun n -> if not (Spec.valid_name n) then Alcotest.failf "bad name %s" n)
    (List.map fst s.Spec.workloads @ List.map (fun m -> m.Spec.name) (s.Spec.end_to_end @ s.Spec.per_layer));
  List.iter
    (fun (name, unit_, moves) ->
      if moves = [] then Alcotest.failf "%s moves nothing" name;
      List.iter
        (fun (e2e, ws) ->
          if not (List.exists (fun m -> m.Spec.name = e2e) s.Spec.end_to_end) then
            Alcotest.failf "%s names undeclared end-to-end metric %s" name e2e;
          List.iter
            (fun w ->
              if not (List.mem_assoc w s.Spec.workloads) then
                Alcotest.failf "%s names undeclared workload %s" name w)
            ws)
        moves;
      (* a layer absent from a workload reads 0 there, which only a share,
         ratio or count may do; a time must be measured everywhere *)
      if not (Catalog.may_be_zero unit_) then
        List.iter
          (fun w ->
            if not (List.exists (fun (_, ws) -> List.mem w ws) moves) then
              Alcotest.failf "%s (%s) is not measured on %s" name unit_ w)
          Catalog.workloads)
    Catalog.per_layer

let replace s a b =
  let la = String.length a in
  let buf = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - la then Buffer.add_string buf (String.sub s i (String.length s - i))
    else if String.sub s i la = a then (
      Buffer.add_string buf b;
      go (i + la))
    else (
      Buffer.add_char buf s.[i];
      go (i + 1))
  in
  go 0;
  Buffer.contents buf

let rejects_bad_specs () =
  let base =
    {|{"command": ["sh", "x/run.sh"], "paths": ["x"], "run_seconds": 5,
       "workloads": [{"name": "a", "why": "one"}, {"name": "b", "why": "two"}],
       "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": BOUND}],
       "per_layer": [{"name": "NAME", "unit": "count", "better": "higher"}]}|}
  in
  let with_ bound name = replace (replace base "BOUND" bound) "NAME" name in
  let ok = function Ok _ -> true | Error _ -> false in
  Alcotest.(check bool) "valid" true (ok (Spec.parse (with_ "0.2" "x.count")));
  Alcotest.(check bool) "bound above 0.25" false (ok (Spec.parse (with_ "0.3" "x.count")));
  Alcotest.(check bool) "name with a space" false (ok (Spec.parse (with_ "0.2" "x count")));
  Alcotest.(check bool) "name reused" false (ok (Spec.parse (with_ "0.2" "setup_s")));
  Alcotest.(check bool) "extra key" false
    (ok (Spec.parse (replace (with_ "0.2" "x") "\"run_seconds\"" "\"extra\": 1, \"run_seconds\"")))

let result_line () =
  let o =
    {
      Outcome.attempted = 3;
      failed = 0;
      checks = [ ("fine", true) ];
      e2e = List.map (fun (n, _) -> Outcome.metric n 1.5) Catalog.end_to_end;
      layers = [ ("trace.item_us", 2.25) ];
      notes = [];
    }
  in
  let parse l = Ra_experiments.Benchkit.parse_json l in
  let keys line =
    match parse line with
    | Ra_experiments.Benchkit.J_object kv -> (
        match List.assoc "metrics" kv with
        | Ra_experiments.Benchkit.J_object ms -> (List.map fst kv, List.map fst ms)
        | _ -> Alcotest.fail "metrics is not an object")
    | _ -> Alcotest.fail "not an object"
  in
  let top, e2e = keys (Outcome.json_line o ~trace:false) in
  Alcotest.(check (list string)) "top-level keys" [ "correct"; "attempted"; "failed"; "metrics" ] top;
  Alcotest.(check (list string)) "every end-to-end metric" (List.map fst Catalog.end_to_end) e2e;
  let _, layers = keys (Outcome.json_line o ~trace:true) in
  Alcotest.(check (list string)) "every per-layer metric"
    (List.map (fun (n, _, _) -> n) Catalog.per_layer)
    layers

let () =
  Alcotest.run "e2ebench"
    [
      ( "stats",
        [
          Alcotest.test_case "medians and quartiles" `Quick medians_and_quartiles;
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time" `Quick self_time;
          Alcotest.test_case "recorded spans" `Quick recorded_spans;
        ] );
      ("client", [ Alcotest.test_case "open loop through a stall" `Quick open_loop_stall ]);
      ( "spec",
        [
          Alcotest.test_case "judge reports every pair" `Quick judge_reports_every_pair;
          Alcotest.test_case "BENCHMARK.json" `Quick benchmark_json;
          Alcotest.test_case "rejects bad specs" `Quick rejects_bad_specs;
          Alcotest.test_case "result line" `Quick result_line;
        ] );
    ]
