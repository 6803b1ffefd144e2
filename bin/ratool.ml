(* ratool: command-line front end for every experiment in the reproduction.
   Each subcommand regenerates one of the paper's artifacts. *)

open Cmdliner
open Ra_experiments

let seed_arg =
  let doc = "Random seed driving the deterministic simulation." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)

let trials_arg default =
  let doc = "Monte-Carlo trials per data point." in
  Arg.(value & opt int default & info [ "trials" ] ~docv:"N" ~doc)

(* Evaluating this term sets the Ra_parallel default, so commands opt in by
   prepending [$ jobs_term] and taking a leading unit. Results do not depend
   on the value — only wall time does. *)
let jobs_term =
  let doc =
    "Domains for the parallel experiment drivers (default: $(b,RA_JOBS) or \
     the host's core count; 1 forces sequential)."
  in
  Term.(
    const (fun jobs -> Option.iter Ra_parallel.set_default_jobs jobs)
    $ Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc))

(* comma-separated positive job counts, rejected at parse time (usage error
   before any experiment runs) rather than after a full campaign *)
let jobs_list_conv =
  let parse s =
    let entries = List.map String.trim (String.split_on_char ',' s) in
    let ints = List.map int_of_string_opt entries in
    if entries = [] || List.exists (function Some j -> j < 1 | None -> true) ints
    then
      Error
        (`Msg
          (Printf.sprintf
             "invalid job list %S: expected comma-separated positive integers \
              (e.g. 1,4)"
             s))
    else Ok (List.filter_map Fun.id ints)
  in
  let print fmt js =
    Format.pp_print_string fmt (String.concat "," (List.map string_of_int js))
  in
  Arg.conv ~docv:"J1,J2" (parse, print)

let check_jobs_arg =
  Arg.(
    value & opt jobs_list_conv []
    & info [ "check-jobs" ] ~docv:"J1,J2"
        ~doc:
          "Repeat the run at each of these job counts and fail unless every \
           counter digest is bit-identical.")

(* The one print-and-exit for a failed gate: each line (the problems,
   then the verdict) under the command's name. Exit 1, not cmdliner's
   124/125: a violated invariant is a test failure, not a CLI usage
   error. *)
let fail ~cmd lines =
  List.iter (fun m -> Printf.eprintf "ratool %s: %s\n" cmd m) lines;
  exit 1

(* The one re-run-and-compare loop behind every --check-jobs and
   --check-shards: [check p] re-runs the campaign at point [p] and says
   how it compares with the reference — [Ok note] prints
   "<label>=<p>: <note>", [Error problems] are returned, each prefixed
   the same way. *)
let recheck ~label points check =
  List.concat_map
    (fun p ->
      match check p with
      | Ok note ->
        Printf.printf "%s=%d: %s\n" label p note;
        []
      | Error problems -> List.map (Printf.sprintf "%s=%d: %s" label p) problems)
    points

let diverged a b = Error [ Printf.sprintf "diverged:\n  %s\n  %s" a b ]

(* --- fig1: on-demand protocol timeline ------------------------------- *)

let scheme_arg =
  let doc = "Scheme: smart, no-lock, all-lock, dec-lock, inc-lock, cpy-lock or smarm." in
  Arg.(value & opt string "smart" & info [ "scheme" ] ~docv:"SCHEME" ~doc)

let run_fig1 seed scheme_name =
  match Ra_core.Scheme.of_name scheme_name with
  | None -> `Error (false, "unknown scheme: " ^ scheme_name)
  | Some scheme ->
    let device =
      Ra_device.Device.create
        { Ra_device.Device.default_config with Ra_device.Device.seed }
    in
    let verifier = Ra_core.Verifier.of_device device in
    let result = ref None in
    Ra_core.Protocol.on_demand device verifier
      { Ra_core.Mp.default_config with Ra_core.Mp.scheme }
      ~net_delay:(Ra_sim.Timebase.ms 40)
      ~auth_time:(Ra_sim.Timebase.us 200)
      ~on_done:(fun events -> result := Some events)
      ();
    Ra_device.Device.run device;
    (match !result with
    | None -> `Error (false, "protocol did not complete")
    | Some events ->
      Printf.printf "Fig. 1 / E1 — on-demand RA timeline (%s)\n\n"
        scheme.Ra_core.Scheme.name;
      print_string (Ra_core.Timeline.render (Ra_core.Protocol.events_to_markers events));
      Printf.printf "\nverdict: %s\n"
        (Ra_core.Verifier.verdict_to_string events.Ra_core.Protocol.verdict);
      `Ok ())

let fig1_cmd =
  let info = Cmd.info "timeline" ~doc:"Fig. 1: on-demand RA protocol timeline" in
  Cmd.v info Term.(ret (const run_fig1 $ seed_arg $ scheme_arg))

(* --- fig2 -------------------------------------------------------------- *)

let run_fig2 () =
  let cost = Ra_device.Cost_model.odroid_xu4 in
  print_string (Fig2.render cost);
  print_newline ();
  print_string (Fig2.render_claims cost);
  print_newline ();
  print_string (Fig2.crossover_table cost)

let fig2_cmd =
  let info = Cmd.info "fig2" ~doc:"Fig. 2: hash and signature timings (model)" in
  Cmd.v info Term.(const run_fig2 $ const ())

(* --- table1 ------------------------------------------------------------ *)

let run_table1 () seed trials = print_string (Table1.render ~trials ~seed ())

let table1_cmd =
  let info = Cmd.info "table1" ~doc:"Table 1: measured feature matrix" in
  Cmd.v info Term.(const run_table1 $ jobs_term $ seed_arg $ trials_arg 40)

(* --- fig4 -------------------------------------------------------------- *)

let run_fig4 seed = print_string (Fig4.render ~seed ())

let fig4_cmd =
  let info = Cmd.info "fig4" ~doc:"Fig. 4: temporal-consistency windows" in
  Cmd.v info Term.(const run_fig4 $ seed_arg)

(* --- fig5 / qoa --------------------------------------------------------- *)

let run_fig5 seed trials =
  print_string (Fig5.render_story ~seed ());
  print_newline ();
  print_string
    (Fig5.detection_sweep ~seed ~trials ~t_m:(Ra_sim.Timebase.s 10)
       ~dwells:(List.map Ra_sim.Timebase.s [ 1; 2; 4; 6; 8; 10; 12 ])
       ());
  print_newline ();
  print_string (Fig5.freshness_table ())

let fig5_cmd =
  let info = Cmd.info "qoa" ~doc:"Fig. 5: Quality of Attestation (ERASMUS)" in
  Cmd.v info Term.(const run_fig5 $ seed_arg $ trials_arg 60)

(* --- smarm -------------------------------------------------------------- *)

let run_smarm () seed trials =
  print_string (Smarm_sweep.sweep_rounds ~blocks:64 ~max_rounds:14 ~game_trials:200000 ~seed ());
  print_newline ();
  print_string (Smarm_sweep.sweep_blocks ~blocks_list:[ 4; 16; 64; 256; 1024 ] ~trials:200000 ~seed ());
  let escape, (lo, hi) = Smarm_sweep.simulated_escape_rate ~blocks:64 ~rounds:1 ~trials ~seed () in
  Printf.printf
    "\nfull-device simulation, 1 round, B=64: escape %.3f (95%% CI %.3f-%.3f, theory %.3f)\n"
    escape lo hi (Ra_core.Smarm.per_round_escape_probability ~blocks:64)

let smarm_cmd =
  let info = Cmd.info "smarm" ~doc:"Section 3.2: SMARM escape probabilities" in
  Cmd.v info Term.(const run_smarm $ jobs_term $ seed_arg $ trials_arg 200)

(* --- fire alarm ---------------------------------------------------------- *)

let run_fire seed = print_string (Fire_alarm.render ~seed ())

let fire_cmd =
  let info = Cmd.info "fire-alarm" ~doc:"Section 2.5: alarm latency during MP" in
  Cmd.v info Term.(const run_fire $ seed_arg)

(* --- ablations ------------------------------------------------------------ *)

let run_ablations () seed =
  print_string (Ablations.lock_granularity ~seed ());
  print_newline ();
  print_string (Ablations.measurement_order ~seed ());
  print_newline ();
  print_string (Ablations.smarm_block_count ~seed ());
  print_newline ();
  print_string (Ablations.zero_data_countermeasure ~seed ());
  print_newline ();
  print_string (Ablations.platform_contrast ());
  print_newline ();
  print_string (Ablations.hybrid_schemes ())

let ablations_cmd =
  let info = Cmd.info "ablations" ~doc:"Design-choice ablations" in
  Cmd.v info Term.(const run_ablations $ jobs_term $ seed_arg)

(* --- schedulability ------------------------------------------------------------------- *)

let run_sched _seed = print_string (Ra_device.Taskset.schedulability_table ())

let sched_cmd =
  let info = Cmd.info "schedulability" ~doc:"Task-set deadline misses under attestation" in
  Cmd.v info Term.(const run_sched $ seed_arg)

(* --- advisor ------------------------------------------------------------------------ *)

let run_advisor () =
  print_string (Advisor.render Advisor.default_profile);
  print_newline ();
  print_string
    (Advisor.render
       { Advisor.default_profile with Advisor.has_shadow_memory = true });
  print_newline ();
  print_string
    (Advisor.render
       {
         Advisor.default_profile with
         Advisor.unattended = true;
         has_secure_clock = true;
         hard_deadline_ms = None;
       })

let advisor_cmd =
  let info = Cmd.info "advise" ~doc:"Rank schemes for a deployment profile" in
  Cmd.v info Term.(const run_advisor $ const ())

(* --- report wire format demo ----------------------------------------------------- *)

let run_report seed =
  let device =
    Ra_device.Device.create
      { Ra_device.Device.default_config with Ra_device.Device.seed; block_size = 256 }
  in
  let verifier = Ra_core.Verifier.of_device device in
  let report = ref None in
  Ra_core.Mp.run device Ra_core.Mp.default_config
    ~nonce:(Ra_sim.Prng.bytes (Ra_sim.Engine.prng device.Ra_device.Device.engine) 16)
    ~on_complete:(fun r -> report := Some r)
    ();
  Ra_device.Device.run device;
  match !report with
  | None -> print_endline "measurement did not complete"
  | Some r ->
    let wire = Ra_core.Report.encode r in
    Printf.printf "encoded report: %d bytes\n" (Bytes.length wire);
    let hex = Ra_crypto.Bytesutil.to_hex wire in
    let rec dump i =
      if i < String.length hex then begin
        Printf.printf "  %s\n" (String.sub hex i (min 64 (String.length hex - i)));
        dump (i + 64)
      end
    in
    dump 0;
    (match Ra_core.Report.decode wire with
    | Ok decoded ->
      Printf.printf "decoded ok; verdict: %s\n"
        (Ra_core.Verifier.verdict_to_string (Ra_core.Verifier.verify verifier decoded))
    | Error e -> Printf.printf "decode failed: %s\n" e)

let report_cmd =
  let info = Cmd.info "report" ~doc:"Encode, dump, decode and verify one report" in
  Cmd.v info Term.(const run_report $ seed_arg)

(* --- fleet rollout ----------------------------------------------------------------- *)

let run_rollout _seed =
  print_endline "E-RO — attested firmware rollout across a fleet";
  let fleet = Ra_core.Fleet.create ~master_secret:(Bytes.of_string "rollout-master") () in
  let config =
    { Ra_device.Device.default_config with Ra_device.Device.block_size = 256 }
  in
  let ids = [ "pump-a"; "pump-b"; "valve-1"; "valve-2" ] in
  List.iter (fun id -> ignore (Ra_core.Fleet.provision fleet id ~config ())) ids;
  (* valve-2's erasure code is compromised: it protects block 11 *)
  List.iter
    (fun id ->
      let device = Ra_core.Fleet.device fleet id in
      let cheat_blocks = if id = "valve-2" then [ 11 ] else [] in
      let outcome = ref None in
      Ra_core.Code_update.run device Ra_core.Code_update.default_config
        ~cheat_blocks ~new_seed:90210
        ~on_done:(fun o -> outcome := Some o)
        ();
      Ra_device.Device.run device;
      match !outcome with
      | None -> Printf.printf "%-10s update hung\n" id
      | Some o ->
        Printf.printf "%-10s erasure=%-8s update=%-8s completed=%s\n" id
          (if o.Ra_core.Code_update.erasure_proof_ok then "proved" else "REJECTED")
          (Ra_core.Verifier.verdict_to_string o.Ra_core.Code_update.update_verdict)
          (Ra_sim.Timebase.to_string o.Ra_core.Code_update.completed_at))
    ids

let rollout_cmd =
  let info = Cmd.info "rollout" ~doc:"Erase-then-update a whole fleet" in
  Cmd.v info Term.(const run_rollout $ seed_arg)

(* --- incremental attestation --------------------------------------------------- *)

let run_incremental seed = print_string (Incremental_eval.render ~seed ())

let incremental_cmd =
  let info = Cmd.info "incremental" ~doc:"Merkle-tree incremental attestation" in
  Cmd.v info Term.(const run_incremental $ seed_arg)

(* --- latency profile --------------------------------------------------------- *)

let run_latency seed = print_string (Latency_profile.render ~seed ())

let latency_cmd =
  let info = Cmd.info "latency" ~doc:"Real-time latency percentiles and lock Gantts" in
  Cmd.v info Term.(const run_latency $ seed_arg)

(* --- hydra --------------------------------------------------------------------- *)

let run_hydra _seed =
  let open Ra_hydra in
  print_endline "E-HY — HYDRA: SMART rules as seL4-style capabilities";
  let device =
    Ra_device.Device.create
      { Ra_device.Device.default_config with Ra_device.Device.blocks = 16; block_size = 256 }
  in
  let hydra =
    Hydra.build device
      ~apps:
        [
          { Hydra.pid = "sensor"; first_block = 0; block_span = 8; priority = 10 };
          { Hydra.pid = "logger"; first_block = 8; block_span = 8; priority = 4 };
        ]
  in
  let verifier = Ra_core.Verifier.of_device device in
  let report = ref None in
  Hydra.attest hydra ~nonce:(Bytes.of_string "cli-demo")
    ~on_complete:(fun r -> report := Some r)
    ();
  Ra_device.Device.run device;
  (match !report with
  | Some r ->
    Printf.printf "attestation of the pristine device: %s\n"
      (Ra_core.Verifier.verdict_to_string (Ra_core.Verifier.verify verifier r))
  | None -> print_endline "attestation did not complete");
  Printf.printf "attestation priority: %d (apps max: 10) -> de-facto atomic\n"
    (Hydra.mp_priority hydra);
  let show_access label result =
    Printf.printf "%-44s %s\n" label
      (match result with Ok _ -> "ALLOWED" | Error e -> "denied (" ^ e ^ ")")
  in
  show_access "hydra-mp reads the attestation key" (Hydra.read_key hydra Hydra.mp_pid);
  show_access "sensor reads the attestation key" (Hydra.read_key hydra "sensor");
  show_access "sensor writes its own region"
    (Hydra.guarded_write hydra "sensor" ~block:2 ~offset:0 (Bytes.of_string "ok"));
  show_access "sensor writes logger's region"
    (Hydra.guarded_write hydra "sensor" ~block:12 ~offset:0 (Bytes.of_string "x"));
  Printf.printf "audited denials: %d\n" (List.length (Hydra.denials hydra))

let hydra_cmd =
  let info = Cmd.info "hydra" ~doc:"HYDRA capability-based SMART rules" in
  Cmd.v info Term.(const run_hydra $ seed_arg)

(* --- seed demo ------------------------------------------------------------- *)

let run_seed_demo seed =
  let device =
    Ra_device.Device.create
      { Ra_device.Device.default_config with Ra_device.Device.seed; block_size = 256 }
  in
  let eng = device.Ra_device.Device.engine in
  let verifier = Ra_core.Verifier.of_device device in
  let inbox = ref [] in
  let config =
    {
      Ra_core.Seed_ra.default_config with
      Ra_core.Seed_ra.shared_seed = seed;
      mean_interval = Ra_sim.Timebase.s 20;
    }
  in
  let prover =
    Ra_core.Seed_ra.start device config ~send:(fun (t, r) -> inbox := (t, r) :: !inbox)
  in
  Ra_sim.Engine.run ~until:(Ra_sim.Timebase.minutes 3) eng;
  Ra_core.Seed_ra.stop prover;
  Ra_sim.Engine.run ~until:(Ra_sim.Timebase.add (Ra_sim.Timebase.minutes 3) (Ra_sim.Timebase.s 30)) eng;
  let received = List.rev !inbox in
  let expected =
    Ra_core.Seed_ra.schedule ~shared_seed:seed ~mean_interval:config.Ra_core.Seed_ra.mean_interval
      ~first_after:Ra_sim.Timebase.zero ~count:(List.length received)
  in
  let outcome =
    Ra_core.Seed_ra.monitor verifier ~expected ~tolerance:(Ra_sim.Timebase.s 10) received
  in
  Printf.printf
    "E9 — SeED: %d reports sent; verifier outcome: accepted=%d tampered=%d replayed=%d missing=%d\n"
    (Ra_core.Seed_ra.reports_sent prover)
    outcome.Ra_core.Seed_ra.accepted outcome.Ra_core.Seed_ra.tampered
    outcome.Ra_core.Seed_ra.replayed outcome.Ra_core.Seed_ra.missing;
  (* replay attack: re-deliver the first report at the end *)
  match received with
  | [] -> ()
  | first :: _ ->
    let replayed_stream = received @ [ first ] in
    let outcome =
      Ra_core.Seed_ra.monitor verifier ~expected ~tolerance:(Ra_sim.Timebase.s 10)
        replayed_stream
    in
    Printf.printf "with a replayed first report: replayed=%d (detected)\n"
      outcome.Ra_core.Seed_ra.replayed

let seed_cmd =
  let info = Cmd.info "seed-demo" ~doc:"Section 3.3: SeED non-interactive attestation" in
  Cmd.v info Term.(const run_seed_demo $ seed_arg)

(* --- dos --------------------------------------------------------------------- *)

let run_dos seed =
  print_string (Dos.render ~seed ());
  print_newline ();
  print_string (Dos.render_duplicates ~seed ())

let dos_cmd =
  let info = Cmd.info "dos" ~doc:"Section 3.3: request-flooding resilience" in
  Cmd.v info Term.(const run_dos $ seed_arg)

(* --- swatt ------------------------------------------------------------------ *)

let run_swatt seed =
  print_endline "E-SW — software-based attestation (Section 2.1 background)";
  print_string
    (Ra_core.Swatt.separation_table ~seed Ra_core.Swatt.default_config ~overhead:1.15
       ~jitter_levels:[ 0.0; 0.01; 0.05; 0.15; 0.30; 0.60 ]);
  print_endline
    "With jitter comparable to the adversary's overhead margin, no threshold\n\
     separates honest from compromised runs: the paper calls the security\n\
     of this approach uncertain."

let swatt_cmd =
  let info = Cmd.info "swatt" ~doc:"Software-based attestation timing analysis" in
  Cmd.v info Term.(const run_swatt $ seed_arg)

(* --- heartbeat --------------------------------------------------------------- *)

let run_heartbeat seed =
  let open Ra_swarm in
  let config = { Heartbeat.default_config with Heartbeat.seed } in
  print_endline "E-HB — DARPA-style absence detection (physical capture)";
  let capture =
    { Heartbeat.node = 5; from_ = Ra_sim.Timebase.s 20; until_ = Ra_sim.Timebase.s 30 }
  in
  let r = Heartbeat.run config ~captures:[ capture ] in
  Printf.printf
    "capture of node 5 for 10 s: alarmed=[%s] true=%d false=%d missed=%d (heartbeats %d)
"
    (String.concat "; " (List.map string_of_int r.Heartbeat.alarmed))
    r.Heartbeat.true_alarms r.Heartbeat.false_alarms r.Heartbeat.missed
    r.Heartbeat.heartbeats;
  print_newline ();
  print_string
    (Heartbeat.threshold_sweep
       { config with Heartbeat.loss = 0.2 }
       ~capture_length:(Ra_sim.Timebase.s 6)
       ~factors:[ 1.5; 2.5; 4.0; 7.0 ])

let heartbeat_cmd =
  let info = Cmd.info "heartbeat" ~doc:"Physical-capture absence detection" in
  Cmd.v info Term.(const run_heartbeat $ seed_arg)

(* --- fleet -------------------------------------------------------------------- *)

let run_fleet_demo () =
  print_endline "E-FL — fleet attestation with HKDF-derived per-device keys";
  let fleet = Ra_core.Fleet.create ~master_secret:(Bytes.of_string "demo-master-secret") () in
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

(* A roll call minus its shard grouping: everything that must be
   invariant across --shards (--check-jobs keeps the shard count, so it
   compares whole records). *)
let unsharded r = { r.Fleet_roll.roll with Ra_core.Fleet.shards = 0; shard_roots = [||] }

let fr_root r = Ra_crypto.Bytesutil.to_hex r.Fleet_roll.roll.Ra_core.Fleet.fleet_root

(* Roll-call-at-scale: N devices on one shared-firmware release, every
   1000th one infected, enrolled virtually and attested shard by shard
   over the Ra_parallel pool. Verdicts, counters and the fleet Merkle
   root are invariant under --jobs and --shards; only wall time moves. *)
let run_fleet_scale ~seed ~devices ~shards ~check_jobs ~check_shards
    ~journal_dir =
  Printf.printf "E-FL — fleet roll call at scale: %d devices\n" devices;
  let journal =
    Option.map
      (fun dir -> Ra_journal.Journal.create (Ra_journal.Disk.file ~dir))
      journal_dir
  in
  let r = Fleet_roll.run ~devices ~seed ?shards ?journal () in
  print_string (Fleet_roll.render r);
  Option.iter
    (fun dir ->
      Printf.printf "campaign journal recorded in %s/ (ratool replay --journal %s)\n"
        dir dir)
    journal_dir;
  let compare ~same r' =
    if same r' then Ok "fleet root and counters bit-identical"
    else diverged (fr_root r) (fr_root r')
  in
  let problems =
    recheck ~label:"jobs" check_jobs (fun j ->
        compare
          (Fleet_roll.run ~devices ~seed ~shards:r.Fleet_roll.shards ~jobs:j ())
          ~same:(fun r' -> r'.Fleet_roll.roll = r.Fleet_roll.roll))
    @ recheck ~label:"shards" check_shards (fun s ->
          compare (Fleet_roll.run ~devices ~seed ~shards:s ())
            ~same:(fun r' -> unsharded r' = unsharded r))
  in
  if problems <> [] then fail ~cmd:"fleet" (problems @ [ "invariance check failed" ]);
  `Ok ()

let run_fleet () seed devices shards check_jobs check_shards journal_dir =
  if devices = 0 then begin
    run_fleet_demo ();
    `Ok ()
  end
  else
    run_fleet_scale ~seed ~devices ~shards ~check_jobs ~check_shards
      ~journal_dir

let devices_arg =
  let doc =
    "Scale mode: enrol $(docv) devices on one firmware release and run a \
     sharded parallel roll call (0 runs the 5-device demo)."
  in
  Arg.(value & opt int 0 & info [ "devices" ] ~docv:"N" ~doc)

let shards_arg =
  Arg.(
    value & opt (some int) None
    & info [ "shards" ] ~docv:"S"
        ~doc:
          "Group the roster's segment roots into $(docv) contiguous shard \
           roots (default 1); parallelism comes from $(b,--jobs) alone. The \
           fleet Merkle root and every counter are identical for any value.")

let check_shards_arg =
  Arg.(
    value & opt jobs_list_conv []
    & info [ "check-shards" ] ~docv:"S1,S2"
        ~doc:
          "Repeat the roll call at each of these shard counts and fail \
           unless the fleet root and all counters are bit-identical.")

let fleet_journal_arg =
  Arg.(
    value & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:
          "Record the campaign (parameters, counters, fleet root and shard \
           roots) as a journal under $(docv), replayable with $(b,ratool \
           replay --journal DIR).")

let fleet_cmd =
  let info = Cmd.info "fleet" ~doc:"Multi-device attestation with derived keys" in
  Cmd.v info
    Term.(
      ret
        (const run_fleet $ jobs_term $ seed_arg $ devices_arg $ shards_arg
       $ check_jobs_arg $ check_shards_arg $ fleet_journal_arg))

(* --- swarm ----------------------------------------------------------------- *)

let run_swarm seed =
  let open Ra_swarm in
  let config = { Swarm.default_config with Swarm.seed } in
  let show label result =
    Printf.printf "%-30s healthy=%3d tampered=%2d unresponsive=%3d messages=%4d duration=%s\n"
      label result.Swarm.healthy result.Swarm.tampered result.Swarm.unresponsive
      result.Swarm.messages
      (Ra_sim.Timebase.to_string result.Swarm.duration)
  in
  print_endline "E10 — collective attestation over a spanning tree";
  show "31 nodes, clean" (Swarm.run config ~infected:[]);
  show "31 nodes, 3 infected" (Swarm.run config ~infected:[ 4; 11; 27 ]);
  show "31 nodes, 10% msg loss" (Swarm.run { config with Swarm.loss = 0.1 } ~infected:[ 4 ]);
  show "127 nodes, clean" (Swarm.run { config with Swarm.nodes = 127 } ~infected:[])

let swarm_cmd =
  let info = Cmd.info "swarm" ~doc:"Collective (swarm) attestation extension" in
  Cmd.v info Term.(const run_swarm $ seed_arg)

(* --- chaos ------------------------------------------------------------------ *)

let run_chaos () seed trials =
  if trials < 1 then `Error (true, "--trials must be at least 1")
  else begin
    let summary = Chaos.run ~seed ~trials () in
    print_string (Chaos.render summary);
    if summary.Chaos.violations <> [] then
      fail ~cmd:"chaos" [ "recovery invariants violated" ];
    `Ok ()
  end

let chaos_cmd =
  let doc =
    "Randomized fault injection (corruption, loss, partitions, crashes) \
     against every scheme, asserting recovery invariants"
  in
  let info = Cmd.info "chaos" ~doc in
  Cmd.v info Term.(ret (const run_chaos $ jobs_term $ seed_arg $ trials_arg 50))

(* --- fleet-chaos ------------------------------------------------------------ *)

let fc_digest r = r.Fleet_chaos.report.Ra_supervisor.Supervisor.counter_digest
let fc_detections r =
  List.length r.Fleet_chaos.report.Ra_supervisor.Supervisor.detections

let default_journal_dir = "fleet-chaos-journal"

(* The crash-recovery proof: for each jobs value, record a campaign into its
   own journal directory, kill it mid-round-K, resume from journal+snapshot,
   and require the finished run to match a never-killed reference run —
   same digest, same detection count, no invariant violations. *)
let kill_resume_proof ~devices ~seed ~rounds ~dir ~kill_at ~all_jobs ?shards () =
  let reference =
    Fleet_chaos.run ~devices ~seed ~jobs:1 ?shards ~max_rounds:rounds ()
  in
  print_string (Fleet_chaos.render reference);
  Printf.printf "\nkill/resume proof: kill at round %d, journals under %s/\n"
    kill_at dir;
  let problems =
    recheck ~label:"jobs" all_jobs (fun j ->
        let disk =
          Ra_journal.Disk.file ~dir:(Filename.concat dir (Printf.sprintf "j%d" j))
        in
        let killed =
          Fleet_chaos.record_killed ~disk ~devices ~seed ~jobs:j ?shards
            ~max_rounds:rounds ~kill_at_round:kill_at ()
        in
        if not killed then
          Error
            [ Printf.sprintf "campaign converged before round %d; nothing was killed"
                kill_at ]
        else
          match Fleet_chaos.resume ~disk ~jobs:j ?shards () with
          | Error e -> Error [ "resume failed: " ^ e ]
          | Ok r ->
            let problems =
              List.filter_map
                (fun (bad, problem) -> if bad then Some problem else None)
                [
                  (r.Fleet_chaos.violations <> [], "resumed run violated invariants");
                  ( fc_digest r <> fc_digest reference,
                    Printf.sprintf "digest diverged:\n  %s\n  %s"
                      (fc_digest reference) (fc_digest r) );
                  ( fc_detections r <> fc_detections reference,
                    Printf.sprintf "detections %d/%d vs reference" (fc_detections r)
                      (fc_detections reference) );
                ]
            in
            if problems <> [] then Error problems
            else
              Ok
                (Printf.sprintf
                   "killed at round %d, resumed, converged — digest and %d/%d \
                    detections bit-identical to the unkilled run"
                   kill_at (fc_detections r) (fc_detections reference)))
  in
  if problems <> [] || reference.Fleet_chaos.violations <> [] then
    fail ~cmd:"fleet-chaos" (problems @ [ "crash-recovery proof failed" ]);
  `Ok ()

let run_fleet_chaos devices jobs shards seed rounds check_jobs journal_dir
    kill_at resume =
  if devices < 1 then `Error (true, "--devices must be at least 1")
  else if jobs < 1 then `Error (true, "--jobs must be at least 1")
  else
    match (kill_at, resume) with
    | Some k, _ when k < 1 -> `Error (true, "--kill-at-round must be at least 1")
    | Some k, true ->
      let dir = Option.value journal_dir ~default:default_journal_dir in
      let all_jobs = jobs :: List.filter (fun j -> j <> jobs) check_jobs in
      kill_resume_proof ~devices ~seed ~rounds ~dir ~kill_at:k ~all_jobs
        ?shards ()
    | Some k, false ->
      (* record a crash artifact and stop — resume it in a later invocation *)
      let dir = Option.value journal_dir ~default:default_journal_dir in
      let disk = Ra_journal.Disk.file ~dir in
      let killed =
        Fleet_chaos.record_killed ~disk ~devices ~seed ~jobs ?shards
          ~max_rounds:rounds ~kill_at_round:k ()
      in
      if killed then
        Printf.printf
          "campaign killed after round %d; journal left in %s/\n\
           resume it with: ratool fleet-chaos --resume --journal %s\n"
          k dir dir
      else
        Printf.printf
          "campaign converged before round %d; complete journal in %s/\n" k dir;
      `Ok ()
    | None, true ->
      if check_jobs <> [] then
        `Error
          ( true,
            "--check-jobs does not combine with a bare --resume (resuming \
             completes the journal); use --kill-at-round K --resume" )
      else begin
        let dir = Option.value journal_dir ~default:default_journal_dir in
        let disk = Ra_journal.Disk.file ~dir in
        match Fleet_chaos.resume ~disk ~jobs ?shards () with
        | Error e -> `Error (false, "resume failed: " ^ e)
        | Ok r ->
          print_string (Fleet_chaos.render r);
          if r.Fleet_chaos.violations <> [] then
            fail ~cmd:"fleet-chaos" [ "convergence invariants violated" ];
          `Ok ()
      end
    | None, false ->
      let journal =
        Option.map
          (fun dir -> Ra_journal.Journal.create (Ra_journal.Disk.file ~dir))
          journal_dir
      in
      let r =
        Fleet_chaos.run ~devices ~seed ~jobs ?shards ?journal
          ~max_rounds:rounds ()
      in
      print_string (Fleet_chaos.render r);
      Option.iter
        (fun dir ->
          Printf.printf
            "campaign journal recorded in %s/ (ratool replay --journal %s)\n" dir dir)
        journal_dir;
      let problems =
        recheck ~label:"jobs" check_jobs (fun j ->
            let r' =
              Fleet_chaos.run ~devices ~seed ~jobs:j ?shards ~max_rounds:rounds ()
            in
            if String.equal (fc_digest r) (fc_digest r') then
              Ok "counters bit-identical"
            else diverged (fc_digest r) (fc_digest r'))
      in
      if r.Fleet_chaos.violations <> [] || problems <> [] then
        fail ~cmd:"fleet-chaos" (problems @ [ "convergence invariants violated" ]);
      `Ok ()

let journal_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:
          "Journal directory: record the campaign's write-ahead log and \
           snapshots there (defaults to $(b,fleet-chaos-journal/) when \
           $(b,--kill-at-round) or $(b,--resume) is given).")

let fleet_chaos_cmd =
  let doc =
    "Fleet-scale chaos: crash/partition/corruption/malware faults on a \
     deterministic schedule under the health supervisor, asserting \
     convergence invariants (jobs-invariant counters with $(b,--check-jobs), \
     durable journals with $(b,--journal), and the crash-recovery proof with \
     $(b,--kill-at-round K --resume))"
  in
  let devices_arg =
    Arg.(
      value & opt int 200
      & info [ "devices" ] ~docv:"N" ~doc:"Fleet size (fault kinds cycle every 10 devices).")
  in
  let fc_jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"J"
          ~doc:"Domains supervising the fleet (results are identical for any value).")
  in
  let rounds_arg =
    Arg.(
      value & opt int 20
      & info [ "rounds" ] ~docv:"R" ~doc:"Supervision round budget (30 s of virtual time each).")
  in
  let kill_at_arg =
    Arg.(
      value & opt (some int) None
      & info [ "kill-at-round" ] ~docv:"K"
          ~doc:
            "Kill the verifier after $(docv) completed rounds, leaving a torn \
             record on the WAL tail. With $(b,--resume), prove recovery: kill, \
             resume and compare against an unkilled reference run for every \
             job count.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Recover the journal in $(b,--journal) and supervise the campaign \
             to convergence (with $(b,--kill-at-round), run the full \
             kill/resume proof instead).")
  in
  let fc_shards_arg =
    Arg.(
      value & opt (some int) None
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Contiguous roster chunks per supervision round's execute phase \
             (results are identical for any value).")
  in
  let info = Cmd.info "fleet-chaos" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run_fleet_chaos $ devices_arg $ fc_jobs_arg $ fc_shards_arg
       $ seed_arg $ rounds_arg $ check_jobs_arg $ journal_dir_arg
       $ kill_at_arg $ resume_arg))

(* --- replay ------------------------------------------------------------------ *)

(* One verify-mode replay per jobs value, dispatched on the experiment the
   journal's campaign header names — the same directory flag serves every
   journaled campaign kind — then the last verified result rendered. *)
let run_replay jobs dir check_jobs =
  if jobs < 1 then `Error (true, "--jobs must be at least 1")
  else begin
    let disk = Ra_journal.Disk.file ~dir in
    let all_jobs = jobs :: List.filter (fun j -> j <> jobs) check_jobs in
    let verify replay_one =
      let last = ref None in
      let problems =
        recheck ~label:"jobs" all_jobs (fun j ->
            match replay_one j with
            | Error e -> Error [ "diverged from the journal: " ^ e ]
            | Ok r ->
              last := Some r;
              Ok "replayed bit-identically — every record and the final digest \
                  verified")
      in
      if problems <> [] then
        fail ~cmd:"replay" (problems @ [ "replay verification failed" ]);
      print_newline ();
      !last
    in
    let experiment =
      match Ra_journal.Journal.recover disk with
      | Error _ -> None
      | Ok r -> Campaign.experiment r.Ra_journal.Journal.events
    in
    match experiment with
    | Some "fleet-roll" ->
      Option.iter
        (fun r -> print_string (Fleet_roll.render r))
        (verify (fun j -> Fleet_roll.replay ~disk ~jobs:j ()));
      `Ok ()
    | _ ->
      Option.iter
        (fun r ->
          print_string (Fleet_chaos.render r);
          if r.Fleet_chaos.violations <> [] then
            fail ~cmd:"replay" [ "replayed campaign violated invariants" ])
        (verify (fun j -> Fleet_chaos.replay ~disk ~jobs:j ()));
      `Ok ()
  end

let replay_cmd =
  let doc =
    "Reconstruct fleet state from a recorded journal (snapshot + deltas), \
     re-run the campaign and verify every record bit-identically — counter \
     digests are equal for any $(b,--jobs) value"
  in
  let dir_arg =
    Arg.(
      value & opt string default_journal_dir
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Journal directory recorded by $(b,ratool fleet-chaos --journal) \
             or $(b,ratool fleet --journal); the campaign record inside \
             names the experiment to re-run.")
  in
  let rp_jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"J"
          ~doc:"Domains driving the re-execution (the verified records are \
                identical for any value).")
  in
  let info = Cmd.info "replay" ~doc in
  Cmd.v info
    Term.(ret (const run_replay $ rp_jobs_arg $ dir_arg $ check_jobs_arg))

(* --- bench ------------------------------------------------------------------ *)

let run_bench () full out_dir against tolerance =
  let quick = not full in
  let suites =
    [
      ("BENCH_crypto.json",
       { Benchkit.suite = "crypto"; metrics = Benchkit.crypto_metrics ~quick () });
      ("BENCH_sim.json",
       { Benchkit.suite = "sim"; metrics = Benchkit.sim_metrics ~quick () });
    ]
  in
  (match out_dir with
  | None ->
    List.iter (fun (_, suite) -> print_string (Benchkit.to_json suite)) suites
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun (file, suite) ->
        let path = Filename.concat dir file in
        Benchkit.write_file path suite;
        Printf.printf "wrote %s\n" path)
      suites);
  match against with
  | None -> `Ok ()
  | Some dir ->
    let report, ok =
      Benchkit.compare_all ~tolerance ~keep:(fun _ -> true)
        (List.map
           (fun (file, current) ->
             let path = Filename.concat dir file in
             ("current run vs " ^ path, fun () -> (Benchkit.read_file path, current)))
           suites)
    in
    print_string report;
    if ok then `Ok () else `Error (false, "benchmark regression beyond tolerance")

let bench_cmd =
  let doc =
    "Quick perf metrics (hash MB/s, engine events/s, experiment wall-times) \
     as BENCH_*.json, optionally diffed against a committed baseline"
  in
  let full_arg =
    Arg.(value & flag & info [ "full" ] ~doc:"Full-size buffers and budgets (slower, steadier).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR" ~doc:"Write BENCH_crypto.json and BENCH_sim.json to $(docv) instead of stdout.")
  in
  let against_arg =
    Arg.(value & opt (some string) None
         & info [ "against" ] ~docv:"DIR" ~doc:"Compare against the baseline BENCH_*.json files in $(docv); non-zero exit on regression.")
  in
  let tolerance_arg =
    Arg.(value & opt float 0.2
         & info [ "tolerance" ] ~docv:"T" ~doc:"Allowed fractional slowdown before a metric counts as regressed (0.2 = 20%).")
  in
  let info = Cmd.info "bench" ~doc in
  Cmd.v info
    Term.(ret (const run_bench $ jobs_term $ full_arg $ out_arg $ against_arg $ tolerance_arg))

(* --- all -------------------------------------------------------------------- *)

let run_all () seed trials =
  ignore (run_fig1 seed "smart");
  print_newline ();
  run_fig2 ();
  print_newline ();
  run_table1 () seed trials;
  print_newline ();
  run_fig4 seed;
  print_newline ();
  run_fig5 seed trials;
  print_newline ();
  run_smarm () seed trials;
  print_newline ();
  run_fire seed;
  print_newline ();
  run_ablations () seed;
  print_newline ();
  run_seed_demo seed;
  print_newline ();
  run_swarm seed;
  print_newline ();
  run_swatt seed;
  print_newline ();
  run_dos seed;
  print_newline ();
  run_latency seed;
  print_newline ();
  run_incremental seed;
  print_newline ();
  run_hydra seed;
  print_newline ();
  run_heartbeat seed;
  print_newline ();
  run_fleet_demo ()

(* --- attestation server over TCP ----------------------------------------- *)

let port_arg =
  Arg.(
    value & opt int 7411
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port of the attestation server.")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind/connect (IPv4 literal).")

let server_devices_arg =
  Arg.(
    value & opt int 32
    & info [ "devices" ] ~docv:"N"
        ~doc:
          "Fleet size. Server and load generator derive the same roster and \
           keys from (devices, seed) — keep the two invocations in agreement.")

let reports_arg =
  Arg.(
    value & opt int 4
    & info [ "reports" ] ~docv:"R" ~doc:"Attestation reports per device.")

let serve_cmd =
  let doc =
    "Run the attestation control plane: a crash-tolerant TCP server with a \
     bounded ingest queue (overload sheds typed Busy frames), routed \
     fleet-health/quarantine/root endpoints, and every accepted report \
     journaled before acknowledgement. If $(b,--dir) holds a journal, the \
     server restarts through Journal.restart — kill -9 it freely."
  in
  let dir_arg =
    Arg.(
      value & opt string "_server"
      & info [ "dir" ] ~docv:"DIR" ~doc:"Journal directory (created if missing).")
  in
  let capacity_arg =
    Arg.(
      value & opt int 64
      & info [ "capacity" ] ~docv:"K"
          ~doc:"Bounded queue depth; submissions beyond it shed with Busy.")
  in
  let fresh_arg =
    Arg.(
      value & flag
      & info [ "fresh" ]
          ~doc:"Discard any existing journal instead of recovering from it.")
  in
  let run () host port dir devices seed capacity fresh =
    if capacity < 1 then `Error (true, "--capacity must be at least 1")
    else if devices < 1 then `Error (true, "--devices must be at least 1")
    else
      Ra_server.Tcp.serve ~host ~port ~dir
        ~config:{ Ra_server.Core.devices; seed; capacity }
        ~fresh ()
  in
  let info = Cmd.info "serve" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ jobs_term $ host_arg $ port_arg $ dir_arg
       $ server_devices_arg $ seed_arg $ capacity_arg $ fresh_arg))

let loadgen_cmd =
  let doc =
    "Drive a deterministic seeded attestation campaign against a running \
     server ($(b,ratool serve)): one connection per device, RFC 6298 \
     retry/backoff on Busy and timeouts, reconnect-with-backoff across \
     server restarts. Prints client and server counters, throughput, and \
     the final fleet Merkle root; fails unless every report is acknowledged \
     and the verdict table matches the plan's infected set."
  in
  let run () host port devices seed reports =
    match
      Ra_server.Tcp.run_campaign ~host ~port ~devices ~seed
        ~reports_per_device:reports ()
    with
    | Error e -> `Error (false, "loadgen: " ^ e)
    | Ok c ->
        print_string (Ra_server.Tcp.render_campaign c);
        let expected = Ra_server.Loadgen.expected_tampered ~devices in
        if c.Ra_server.Tcp.acked <> devices * reports then
          fail ~cmd:"loadgen" [ "campaign did not retire every report" ];
        if c.Ra_server.Tcp.tampered <> expected then
          fail ~cmd:"loadgen"
            [ Printf.sprintf "verdict table shows %d tampered devices, plan infected %d"
                c.Ra_server.Tcp.tampered expected ];
        `Ok ()
  in
  let info = Cmd.info "loadgen" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ jobs_term $ host_arg $ port_arg $ server_devices_arg
       $ seed_arg $ reports_arg))

let server_chaos_cmd =
  let doc =
    "End-to-end chaos for the control plane, in process: seeded loadgen \
     campaigns over a simulated network under torn writes, stalls, \
     mid-frame resets and corruption, with a kill -9 injected mid-ingest. \
     Asserts that the restarted campaign converges to the exact state of an \
     unkilled fault-free run (bit-identical fleet root, identical accepted \
     count and verdict split) and that outcomes are deterministic per seed \
     and invariant across $(b,--jobs)."
  in
  let sc_devices_arg =
    Arg.(
      value & opt int 24
      & info [ "devices" ] ~docv:"N" ~doc:"Fleet size per trial.")
  in
  let sc_capacity_arg =
    Arg.(
      value & opt int 8
      & info [ "capacity" ] ~docv:"K"
          ~doc:"Queue depth (small enough that bursts must shed).")
  in
  let run () seed trials devices reports capacity =
    if trials < 1 then `Error (true, "--trials must be at least 1")
    else begin
      let report =
        Ra_server.Server_chaos.run ~trials ~devices ~reports_per_device:reports
          ~capacity ~seed ()
      in
      print_string (Ra_server.Server_chaos.render report);
      if not (Ra_server.Server_chaos.ok report) then
        fail ~cmd:"server-chaos" [ "recovery invariants violated" ];
      `Ok ()
    end
  in
  let info = Cmd.info "server-chaos" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ jobs_term $ seed_arg $ trials_arg 5 $ sc_devices_arg
       $ reports_arg $ sc_capacity_arg))

let all_cmd =
  let info = Cmd.info "all" ~doc:"Run every experiment" in
  Cmd.v info Term.(const run_all $ jobs_term $ seed_arg $ trials_arg 40)

let main =
  let doc = "Reproduction harness: RA vs safety-critical operation (DAC'18)" in
  let info = Cmd.info "ratool" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      fig1_cmd;
      fig2_cmd;
      table1_cmd;
      fig4_cmd;
      fig5_cmd;
      smarm_cmd;
      fire_cmd;
      ablations_cmd;
      seed_cmd;
      swarm_cmd;
      dos_cmd;
      sched_cmd;
      advisor_cmd;
      report_cmd;
      rollout_cmd;
      incremental_cmd;
      latency_cmd;
      hydra_cmd;
      swatt_cmd;
      heartbeat_cmd;
      fleet_cmd;
      chaos_cmd;
      fleet_chaos_cmd;
      replay_cmd;
      serve_cmd;
      loadgen_cmd;
      server_chaos_cmd;
      bench_cmd;
      all_cmd;
    ]

let () = exit (Cmd.eval main)
