(* Benchmark and regeneration harness.

   Part 1 regenerates every table and figure of the paper (the experiment
   harness output the evaluation section is judged by); part 2 runs Bechamel
   microbenchmarks of the real from-scratch crypto and the simulator, which
   double as the "real implementation" shape check behind Fig. 2. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate the paper's artifacts                            *)
(* ------------------------------------------------------------------ *)

let banner title =
  let rule = String.make 74 '=' in
  Printf.printf "\n%s\n== %s\n%s\n" rule title rule

let timed label f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  Printf.printf "[%s regenerated in %.2f s]\n" label (Unix.gettimeofday () -. t0);
  result

let regenerate_fig1 () =
  banner "E1 / Fig. 1 — on-demand RA timeline";
  let device = Ra_device.Device.create Ra_device.Device.default_config in
  let verifier = Ra_core.Verifier.of_device device in
  let events = ref None in
  Ra_core.Protocol.on_demand device verifier Ra_core.Mp.default_config
    ~net_delay:(Ra_sim.Timebase.ms 40) ~auth_time:(Ra_sim.Timebase.us 200)
    ~on_done:(fun e -> events := Some e)
    ();
  Ra_device.Device.run device;
  match !events with
  | None -> print_endline "protocol did not complete"
  | Some e ->
    print_string (Ra_core.Timeline.render (Ra_core.Protocol.events_to_markers e));
    Printf.printf "verdict: %s\n"
      (Ra_core.Verifier.verdict_to_string e.Ra_core.Protocol.verdict)

let regenerate_fig2 () =
  banner "E2 / Fig. 2 — hash & signature timing model (ODROID-XU4 calibration)";
  let cost = Ra_device.Cost_model.odroid_xu4 in
  print_string (Ra_experiments.Fig2.render cost);
  print_newline ();
  print_string (Ra_experiments.Fig2.render_claims cost);
  print_newline ();
  print_string (Ra_experiments.Fig2.crossover_table cost)

let regenerate_table1 () =
  banner "E3 / Table 1 — measured feature matrix";
  print_string (Ra_experiments.Table1.render ~trials:40 ())

let regenerate_fig4 () =
  banner "E4 / Fig. 4 — temporal consistency";
  print_string (Ra_experiments.Fig4.render ())

let regenerate_fig5 () =
  banner "E6 / Fig. 5 — Quality of Attestation";
  print_string (Ra_experiments.Fig5.render_story ());
  print_newline ();
  print_string
    (Ra_experiments.Fig5.detection_sweep ~trials:60 ~t_m:(Ra_sim.Timebase.s 10)
       ~dwells:(List.map Ra_sim.Timebase.s [ 1; 2; 4; 6; 8; 10; 12 ])
       ());
  print_newline ();
  print_string (Ra_experiments.Fig5.freshness_table ())

let regenerate_smarm () =
  banner "E5 / Section 3.2 — SMARM escape probabilities";
  print_string
    (Ra_experiments.Smarm_sweep.sweep_rounds ~blocks:64 ~max_rounds:14
       ~game_trials:200_000 ~seed:7 ());
  print_newline ();
  print_string
    (Ra_experiments.Smarm_sweep.sweep_blocks ~blocks_list:[ 4; 16; 64; 256; 1024 ]
       ~trials:200_000 ~seed:7 ());
  let escape, (lo, hi) =
    Ra_experiments.Smarm_sweep.simulated_escape_rate ~blocks:64 ~rounds:1 ~trials:200
      ~seed:7 ()
  in
  Printf.printf
    "full-device simulation (B=64, 1 round, 200 trials): escape %.3f [%.3f, %.3f]\n"
    escape lo hi

let regenerate_fire_alarm () =
  banner "E7 / Section 2.5 — fire alarm latency";
  print_string (Ra_experiments.Fire_alarm.render ())

let regenerate_ablations () =
  banner "Ablations";
  print_string (Ra_experiments.Ablations.lock_granularity ());
  print_newline ();
  print_string (Ra_experiments.Ablations.measurement_order ());
  print_newline ();
  print_string (Ra_experiments.Ablations.smarm_block_count ~trials:50_000 ());
  print_newline ();
  print_string (Ra_experiments.Ablations.zero_data_countermeasure ());
  print_newline ();
  print_string (Ra_experiments.Ablations.platform_contrast ());
  print_newline ();
  print_string (Ra_experiments.Ablations.hybrid_schemes ~trials:30 ())

let regenerate_swarm () =
  banner "E10 — collective attestation (extension)";
  let open Ra_swarm in
  let show label r =
    Printf.printf "%-32s healthy=%4d tampered=%3d unresponsive=%4d messages=%5d round=%s\n"
      label r.Swarm.healthy r.Swarm.tampered r.Swarm.unresponsive r.Swarm.messages
      (Ra_sim.Timebase.to_string r.Swarm.duration)
  in
  show "31 nodes, clean" (Swarm.run Swarm.default_config ~infected:[]);
  show "31 nodes, 3 infected" (Swarm.run Swarm.default_config ~infected:[ 4; 11; 27 ]);
  show "127 nodes, 10% loss"
    (Swarm.run { Swarm.default_config with Swarm.nodes = 127; loss = 0.1 } ~infected:[ 9 ])

let regenerate_schedulability () =
  banner "Workload-level schedulability (rate-monotonic task sets)";
  print_string (Ra_device.Taskset.schedulability_table ())

let regenerate_incremental () =
  banner "Incremental (Merkle) attestation — extension";
  print_string (Ra_experiments.Incremental_eval.render ())

let regenerate_latency () =
  banner "Real-time latency profile + lock occupancy";
  print_string (Ra_experiments.Latency_profile.render ())

let regenerate_dos () =
  banner "DoS resilience (Section 3.3 SeED claim)";
  print_string (Ra_experiments.Dos.render ())

let regenerate_swatt () =
  banner "Software-based attestation (Section 2.1 background)";
  print_string
    (Ra_core.Swatt.separation_table ~trials:150 Ra_core.Swatt.default_config
       ~overhead:1.15 ~jitter_levels:[ 0.0; 0.01; 0.05; 0.15; 0.30; 0.60 ])

let regenerate_heartbeat () =
  banner "DARPA-style heartbeat absence detection (extension)";
  let open Ra_swarm in
  let capture =
    { Heartbeat.node = 5; from_ = Ra_sim.Timebase.s 20; until_ = Ra_sim.Timebase.s 30 }
  in
  let r = Heartbeat.run Heartbeat.default_config ~captures:[ capture ] in
  Printf.printf "10 s capture of node 5: alarmed=[%s] false=%d missed=%d\n"
    (String.concat "; " (List.map string_of_int r.Heartbeat.alarmed))
    r.Heartbeat.false_alarms r.Heartbeat.missed;
  print_string
    (Heartbeat.threshold_sweep
       { Heartbeat.default_config with Heartbeat.loss = 0.2 }
       ~capture_length:(Ra_sim.Timebase.s 6)
       ~factors:[ 1.5; 2.5; 4.0; 7.0 ])

let regenerate_chaos () =
  banner "Chaos — fault injection vs recovery invariants (extension)";
  print_string (Ra_experiments.Chaos.render (Ra_experiments.Chaos.run ~trials:30 ()));
  print_newline ();
  print_string (Ra_experiments.Dos.render_duplicates ())

let regenerate_fleet () =
  banner "Fleet attestation with HKDF-derived per-device keys (extension)";
  let fleet = Ra_core.Fleet.create ~master_secret:(Bytes.of_string "bench-master") () in
  let config =
    { Ra_device.Device.default_config with Ra_device.Device.block_size = 256 }
  in
  let ids = [ "hvac-1"; "hvac-2"; "door-lock"; "smoke-3"; "camera-9" ] in
  List.iter (fun id -> ignore (Ra_core.Fleet.provision fleet id ~config ())) ids;
  let infected = Ra_core.Fleet.device fleet "door-lock" in
  let rng = Ra_sim.Prng.split (Ra_sim.Engine.prng infected.Ra_device.Device.engine) in
  ignore
    (Ra_malware.Malware.install infected ~rng ~block:10 ~priority:8
       Ra_malware.Malware.Static);
  let roll = Ra_core.Fleet.sharded_roll_call fleet ~jobs:1 Ra_core.Mp.default_config in
  Printf.printf "clean:    %s\n" (String.concat ", " roll.Ra_core.Fleet.clean);
  Printf.printf "tampered: %s\n" (String.concat ", " roll.Ra_core.Fleet.tampered)

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel microbenchmarks of the real implementations        *)
(* ------------------------------------------------------------------ *)

let buffer_64k = Ra_sim.Prng.bytes (Ra_sim.Prng.create ~seed:1) 65536

let hash_tests =
  List.map
    (fun hash ->
      Test.make
        ~name:(Ra_crypto.Algo.hash_name hash ^ " 64KiB")
        (Staged.stage (fun () -> ignore (Ra_crypto.Algo.digest hash buffer_64k))))
    Ra_crypto.Algo.all_hashes

let mac_tests =
  let key = Bytes.of_string "bench-mac-key" in
  [
    Test.make ~name:"HMAC-SHA-256 64KiB"
      (Staged.stage (fun () -> ignore (Ra_crypto.Hmac.Sha256.mac ~key buffer_64k)));
    Test.make ~name:"BLAKE2b keyed 64KiB"
      (Staged.stage (fun () -> ignore (Ra_crypto.Blake2b.mac ~key buffer_64k)));
  ]

let bignum_tests =
  let open Ra_bignum in
  let m = Nat.of_hex Ra_pk.Rsa_keys.n1024 in
  let base = Nat.of_decimal "123456789123456789123456789" in
  let e65537 = Nat.of_int 65537 in
  let a = Nat.of_hex (String.sub Ra_pk.Rsa_keys.n2048 0 128) in
  let b = Nat.of_hex (String.sub Ra_pk.Rsa_keys.n2048 128 128) in
  [
    Test.make ~name:"Nat.mul 512x512 bits"
      (Staged.stage (fun () -> ignore (Nat.mul a b)));
    Test.make ~name:"Nat.divmod 1024/512 bits"
      (Staged.stage (fun () -> ignore (Nat.divmod m a)));
    Test.make ~name:"Nat.mod_pow e=65537 mod 1024-bit"
      (Staged.stage (fun () -> ignore (Nat.mod_pow ~base ~exponent:e65537 ~modulus:m)));
    Test.make ~name:"Nat.mod_pow_fast e=65537 mod 1024-bit"
      (Staged.stage (fun () -> ignore (Nat.mod_pow_fast ~base ~exponent:e65537 ~modulus:m)));
  ]

let pk_tests =
  let msg = Bytes.of_string "benchmark message" in
  let rsa = Ra_pk.Rsa.test_key_1024 in
  let rsa_signature = Ra_pk.Rsa.sign ~hash:Ra_pk.Rsa.SHA_256 rsa msg in
  let rng = Ra_sim.Prng.create ~seed:2 in
  let kp = Ra_pk.Ecdsa.generate Ra_pk.Ec.secp256r1 rng in
  let ecdsa_signature = Ra_pk.Ecdsa.sign ~hash:Ra_crypto.Algo.SHA_256 kp rng msg in
  [
    Test.make ~name:"RSA-1024 sign"
      (Staged.stage (fun () -> ignore (Ra_pk.Rsa.sign ~hash:Ra_pk.Rsa.SHA_256 rsa msg)));
    Test.make ~name:"RSA-1024 verify"
      (Staged.stage (fun () ->
           ignore
             (Ra_pk.Rsa.verify ~hash:Ra_pk.Rsa.SHA_256 rsa.Ra_pk.Rsa.pub ~msg
                ~signature:rsa_signature)));
    Test.make ~name:"ECDSA-P256 sign"
      (Staged.stage (fun () ->
           ignore (Ra_pk.Ecdsa.sign ~hash:Ra_crypto.Algo.SHA_256 kp rng msg)));
    Test.make ~name:"ECDSA-P256 verify"
      (Staged.stage (fun () ->
           ignore
             (Ra_pk.Ecdsa.verify ~hash:Ra_crypto.Algo.SHA_256 ~curve:Ra_pk.Ec.secp256r1
                ~public:kp.Ra_pk.Ecdsa.q msg ecdsa_signature)));
  ]

let extra_crypto_tests =
  let cmac_key = Bytes.of_string "0123456789abcdef" in
  let memory = Ra_sim.Prng.bytes (Ra_sim.Prng.create ~seed:5) 16384 in
  let leaves = Array.init 64 (fun i -> Bytes.sub memory (i * 256) 256) in
  let tree = Ra_core.Merkle.build Ra_crypto.Algo.SHA_256 ~leaves in
  let det_key =
    Ra_pk.Ecdsa.keypair_of_scalar Ra_pk.Ec.secp256r1 (Ra_bignum.Nat.of_int 123456789)
  in
  [
    Test.make ~name:"AES-128-CMAC 16KiB"
      (Staged.stage (fun () -> ignore (Ra_crypto.Cmac.mac ~key:cmac_key memory)));
    Test.make ~name:"HKDF-SHA-256 derive 32B"
      (Staged.stage (fun () ->
           ignore
             (Ra_crypto.Hkdf.derive ~ikm:cmac_key ~info:(Bytes.of_string "bench")
                ~length:32 ())));
    Test.make ~name:"Merkle update (64 leaves)"
      (Staged.stage (fun () ->
           Ra_core.Merkle.update tree ~index:17 ~content:(Bytes.sub memory 0 256)));
    Test.make ~name:"ECDSA-P256 sign (RFC 6979)"
      (Staged.stage (fun () ->
           ignore
             (Ra_pk.Ecdsa.sign_deterministic ~hash:Ra_crypto.Algo.SHA_256 det_key
                (Bytes.of_string "bench message"))));
  ]

let sim_tests =
  [
    Test.make ~name:"engine: 10k timer events"
      (Staged.stage (fun () ->
           let eng = Ra_sim.Engine.create () in
           for i = 1 to 10_000 do
             ignore (Ra_sim.Engine.schedule eng ~at:i (fun _ -> ()))
           done;
           Ra_sim.Engine.run eng));
    Test.make ~name:"full SMART measurement (64 blocks)"
      (Staged.stage (fun () ->
           let device =
             Ra_device.Device.create
               { Ra_device.Device.default_config with Ra_device.Device.block_size = 256 }
           in
           Ra_core.Mp.run device Ra_core.Mp.default_config
             ~nonce:(Bytes.of_string "bench-nonce")
             ~on_complete:(fun _ -> ())
             ();
           Ra_device.Device.run device));
    (* recovery-latency overhead: a full attestation session retrying
       through 20% loss and 20% frame corruption, vs the ideal-channel
       session above *)
    Test.make ~name:"reliable session (20% loss, 20% corruption)"
      (Staged.stage (fun () ->
           let device =
             Ra_device.Device.create
               { Ra_device.Device.default_config with Ra_device.Device.block_size = 256 }
           in
           let verifier = Ra_core.Verifier.of_device device in
           Ra_core.Reliable_protocol.run device verifier
             {
               Ra_core.Reliable_protocol.default_config with
               Ra_core.Reliable_protocol.channel =
                 {
                   Ra_sim.Channel.ideal with
                   Ra_sim.Channel.delay = Ra_sim.Timebase.ms 5;
                   loss = 0.2;
                   corrupt = 0.2;
                 };
               retry_timeout = Ra_sim.Timebase.s 1;
               max_attempts = 10;
             }
             ~on_done:(fun _ -> ())
             ();
           Ra_device.Device.run device));
  ]

let run_group name tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |] in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  (* Bechamel hands results back as a Hashtbl; fold in bucket order and
     sort at the fold site so the printed table never depends on it. *)
  let rows =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold
         (fun key ols_result acc ->
           let estimate =
             match Analyze.OLS.estimates ols_result with
             | Some [ est ] -> est
             | Some _ | None -> nan
           in
           (key, estimate) :: acc)
         results [])
  in
  Printf.printf "\n-- %s --\n" name;
  List.iter
    (fun (key, ns) ->
      if Float.is_nan ns then Printf.printf "%-44s (no estimate)\n" key
      else if ns > 1e6 then Printf.printf "%-44s %10.3f ms/run\n" key (ns /. 1e6)
      else if ns > 1e3 then Printf.printf "%-44s %10.3f us/run\n" key (ns /. 1e3)
      else Printf.printf "%-44s %10.1f ns/run\n" key ns)
    rows;
  rows

(* Shape check: the real from-scratch hashes should preserve the figure's
   "BLAKE2b fast, hashing dominates beyond ~1 MB" story on this host too. *)
let shape_check rows =
  let contains needle k =
    let n = String.length needle in
    let rec scan i = i + n <= String.length k && (String.sub k i n = needle || scan (i + 1)) in
    scan 0
  in
  let find needle = List.find_opt (fun (k, _) -> contains needle k) rows in
  match (find "BLAKE2b", find "SHA-256") with
  | Some (_, b2b), Some (_, sha) when not (Float.is_nan b2b || Float.is_nan sha) ->
    Printf.printf
      "\nshape check: host BLAKE2b %.1f MB/s vs SHA-256 %.1f MB/s (pure-OCaml\n\
boxed-Int64 BLAKE2b can trail SHA-256 here; the calibrated model, not host\n\
speed, carries the Fig. 2 ordering)\n"
      (65536. /. b2b *. 1e9 /. 1e6)
      (65536. /. sha *. 1e9 /. 1e6)
  | _ -> print_endline "\nshape check: estimates unavailable"

(* No options: BENCH_*.json comes from `ratool bench`, which makes the
   same Benchkit calls. RA_JOBS sets the experiment drivers' parallelism. *)
let () =
  let usage = "usage: bench/main.exe  (no options; RA_JOBS=N sets the parallelism)" in
  match List.tl (Array.to_list Sys.argv) with
  | [] -> ()
  | [ "--help" ] ->
    print_endline usage;
    exit 0
  | _ ->
    prerr_endline usage;
    exit 2

let () =
  timed "fig1" regenerate_fig1;
  timed "fig2" regenerate_fig2;
  timed "table1" regenerate_table1;
  timed "fig4" regenerate_fig4;
  timed "fig5" regenerate_fig5;
  timed "smarm" regenerate_smarm;
  timed "fire-alarm" regenerate_fire_alarm;
  timed "ablations" regenerate_ablations;
  timed "swarm" regenerate_swarm;
  timed "swatt" regenerate_swatt;
  timed "dos" regenerate_dos;
  timed "latency" regenerate_latency;
  timed "incremental" regenerate_incremental;
  timed "schedulability" regenerate_schedulability;
  timed "heartbeat" regenerate_heartbeat;
  timed "fleet" regenerate_fleet;
  timed "chaos" regenerate_chaos;
  banner "Bechamel microbenchmarks (real from-scratch implementations)";
  let hash_rows = run_group "hash" hash_tests in
  ignore (run_group "mac" mac_tests);
  ignore (run_group "bignum" bignum_tests);
  ignore (run_group "pk" pk_tests);
  ignore (run_group "crypto-extras" extra_crypto_tests);
  ignore (run_group "sim" sim_tests);
  shape_check hash_rows
