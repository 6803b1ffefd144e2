(* Integration tests: the experiment harnesses must reproduce the paper's
   qualitative results (Table 1, Fig. 2 claims, Fig. 4 matrix, Fig. 5 story,
   SMARM escape probabilities, the Section 2.5 latency blow-up). *)

open Ra_core
open Ra_experiments

let check = Alcotest.check

(* --- Runs ------------------------------------------------------------------- *)

let test_clean_runs_verify () =
  List.iter
    (fun scheme ->
      let outcome = Runs.run Runs.default_setup ~scheme ~adversary:Runs.No_malware in
      check Alcotest.bool (scheme.Scheme.name ^ " clean") false outcome.Runs.detected;
      check Alcotest.int
        (scheme.Scheme.name ^ " one report")
        1
        (List.length outcome.Runs.reports))
    Scheme.all_basic

let test_run_deterministic () =
  let adversary =
    Runs.Malicious
      { behavior = Ra_malware.Malware.Self_relocating Ra_malware.Malware.Uniform_hop;
        block = 40 }
  in
  let o1 = Runs.run Runs.default_setup ~scheme:Scheme.smarm ~adversary in
  let o2 = Runs.run Runs.default_setup ~scheme:Scheme.smarm ~adversary in
  check Alcotest.bool "same seed, same detection" o1.Runs.detected o2.Runs.detected;
  check Alcotest.int "same relocation count" o1.Runs.malware_relocations
    o2.Runs.malware_relocations

let test_static_malware_all_schemes () =
  List.iter
    (fun scheme ->
      let outcome =
        Runs.run Runs.default_setup ~scheme
          ~adversary:(Runs.Malicious { behavior = Ra_malware.Malware.Static; block = 40 })
      in
      check Alcotest.bool
        (scheme.Scheme.name ^ " detects static malware")
        true outcome.Runs.detected)
    Scheme.all_basic

(* Table 1 detection semantics, deterministic rows only (the probabilistic
   SMARM row is covered by the escape-rate tests below). *)
let test_table1_deterministic_rows () =
  let reloc scheme =
    (Runs.run Runs.default_setup ~scheme
       ~adversary:
         (Runs.Malicious
            { behavior = Ra_malware.Malware.Self_relocating Ra_malware.Malware.Half_split_hop;
              block = 40 }))
      .Runs.detected
  in
  let transient scheme =
    (Runs.run Runs.default_setup ~scheme
       ~adversary:
         (Runs.Malicious { behavior = Ra_malware.Malware.Evasive_erase; block = 40 }))
      .Runs.detected
  in
  (* SMART: both caught *)
  check Alcotest.bool "smart reloc" true (reloc Scheme.smart);
  check Alcotest.bool "smart transient" true (transient Scheme.smart);
  (* No-Lock: both escape *)
  check Alcotest.bool "no-lock reloc escapes" false (reloc Scheme.no_lock);
  check Alcotest.bool "no-lock transient escapes" false (transient Scheme.no_lock);
  (* All-Lock and Dec-Lock: both caught *)
  check Alcotest.bool "all-lock reloc" true (reloc Scheme.all_lock);
  check Alcotest.bool "all-lock transient" true (transient Scheme.all_lock);
  check Alcotest.bool "dec-lock reloc" true (reloc Scheme.dec_lock);
  check Alcotest.bool "dec-lock transient" true (transient Scheme.dec_lock);
  (* Inc-Lock: relocation caught, transient escapes *)
  check Alcotest.bool "inc-lock reloc" true (reloc Scheme.inc_lock);
  check Alcotest.bool "inc-lock transient escapes" false (transient Scheme.inc_lock);
  (* Cpy-Lock: writes divert into shadows, so both adversaries are caught *)
  check Alcotest.bool "cpy-lock reloc" true (reloc Scheme.cpy_lock);
  check Alcotest.bool "cpy-lock transient" true (transient Scheme.cpy_lock)

let test_cpy_lock_availability () =
  (* Cpy-Lock's point: All-Lock consistency without the write stalls. *)
  let cpy = Fire_alarm.run_scheme Scheme.cpy_lock in
  check Alcotest.int "no write stall" 0 cpy.Fire_alarm.app_blocked_ns;
  check Alcotest.int "no deadline misses" 0 cpy.Fire_alarm.deadline_misses;
  let consistency = Fig4.run_scheme Scheme.cpy_lock in
  check Alcotest.bool "consistent throughout [ts,te]" true
    consistency.Fig4.consistent_throughout_measure

let test_detection_rate_interval () =
  let rate, (lo, hi) =
    Runs.detection_rate Runs.default_setup ~scheme:Scheme.smart
      ~adversary:(Runs.Malicious { behavior = Ra_malware.Malware.Static; block = 1 })
      ~trials:5
  in
  check (Alcotest.float 1e-9) "certain detection" 1.0 rate;
  check Alcotest.bool "interval sane" true (lo <= rate && rate <= hi)

(* --- SMARM ------------------------------------------------------------------- *)

let test_smarm_game_matches_theory () =
  let blocks = 64 in
  let theory = Smarm.per_round_escape_probability ~blocks in
  let game = Smarm_sweep.game_escape_rate ~blocks ~rounds:1 ~trials:60_000 ~seed:3 in
  check (Alcotest.float 0.01) "abstract game" theory game

let test_smarm_simulation_matches_theory () =
  let escape, (lo, hi) =
    Smarm_sweep.simulated_escape_rate ~blocks:64 ~rounds:1 ~trials:120 ~seed:17 ()
  in
  let theory = Smarm.per_round_escape_probability ~blocks:64 in
  check Alcotest.bool "full simulation covers theory" true (lo <= theory && theory <= hi);
  check Alcotest.bool "escape within plausible band" true (escape > 0.2 && escape < 0.55)

let test_smarm_rounds_drive_escape_down () =
  let e1 = Smarm_sweep.game_escape_rate ~blocks:64 ~rounds:1 ~trials:20_000 ~seed:3 in
  let e3 = Smarm_sweep.game_escape_rate ~blocks:64 ~rounds:3 ~trials:20_000 ~seed:3 in
  check Alcotest.bool "monotone in rounds" true (e3 < e1);
  check (Alcotest.float 0.01) "three rounds ~ theory^3"
    (Smarm.escape_probability ~blocks:64 ~rounds:3)
    e3

(* --- Fig. 2 ------------------------------------------------------------------ *)

let test_fig2_claims_hold () =
  List.iter
    (fun claim ->
      check Alcotest.bool claim.Fig2.label true claim.Fig2.holds)
    (Fig2.claims Ra_device.Cost_model.odroid_xu4)

let test_fig2_hash_ordering () =
  (* at every size, BLAKE2b is the fastest and SHA-256 the slowest on the
     calibrated ODROID profile, matching the figure's ordering *)
  let cost = Ra_device.Cost_model.odroid_xu4 in
  List.iter
    (fun bytes ->
      let time h = Ra_device.Cost_model.hash_time cost h ~bytes in
      check Alcotest.bool "blake2b fastest" true
        (time Ra_crypto.Algo.BLAKE2b <= time Ra_crypto.Algo.SHA_512);
      check Alcotest.bool "sha256 slowest" true
        (time Ra_crypto.Algo.SHA_256 >= time Ra_crypto.Algo.BLAKE2s))
    [ 1024; 1024 * 1024; 100 * 1024 * 1024 ]

let test_fig2_render_nonempty () =
  let out = Fig2.render Ra_device.Cost_model.odroid_xu4 in
  check Alcotest.bool "mentions all hashes" true
    (List.for_all
       (fun h ->
         let name = Ra_crypto.Algo.hash_name h in
         let rec contains i =
           i + String.length name <= String.length out
           && (String.sub out i (String.length name) = name || contains (i + 1))
         in
         contains 0)
       Ra_crypto.Algo.all_hashes)

(* --- Fig. 4 ------------------------------------------------------------------- *)

let test_fig4_matches_paper () =
  List.iter
    (fun expectation ->
      let scheme =
        List.find
          (fun s -> s.Scheme.name = expectation.Fig4.scheme)
          Fig4.schemes
      in
      let r = Fig4.run_scheme scheme in
      check Alcotest.bool
        (expectation.Fig4.scheme ^ " @ts")
        expectation.Fig4.at_start r.Fig4.consistent_at_start;
      check Alcotest.bool
        (expectation.Fig4.scheme ^ " @te")
        expectation.Fig4.at_end r.Fig4.consistent_at_end;
      check Alcotest.bool
        (expectation.Fig4.scheme ^ " throughout")
        expectation.Fig4.throughout r.Fig4.consistent_throughout_measure)
    Fig4.expected

let test_fig4_ext_windows () =
  let all_ext = Fig4.run_scheme (Scheme.all_lock_ext (Ra_sim.Timebase.s 2)) in
  check Alcotest.bool "all-lock-ext consistent through tr" true
    all_ext.Fig4.consistent_throughout_release;
  check Alcotest.bool "tr = te + 2 s" true
    (Ra_sim.Timebase.sub all_ext.Fig4.t_release all_ext.Fig4.t_end = Ra_sim.Timebase.s 2);
  let inc_ext = Fig4.run_scheme (Scheme.inc_lock_ext (Ra_sim.Timebase.s 2)) in
  check Alcotest.bool "inc-lock-ext consistent at tr" true
    inc_ext.Fig4.consistent_at_release

(* --- Fig. 5 -------------------------------------------------------------------- *)

let test_fig5_story () =
  let story = Fig5.run_story () in
  check Alcotest.bool "infection 1 undetected" false story.Fig5.infection1_detected;
  check Alcotest.bool "infection 2 detected" true story.Fig5.infection2_detected;
  check Alcotest.bool "several measurements" true (List.length story.Fig5.measurements >= 6);
  check Alcotest.int "two collections" 2 (List.length story.Fig5.collections)

(* --- Fire alarm (Section 2.5) ----------------------------------------------------- *)

let test_fire_alarm_contrast () =
  let smart = Fire_alarm.run_scheme Scheme.smart in
  let no_lock = Fire_alarm.run_scheme Scheme.no_lock in
  (match (smart.Fire_alarm.alarm_latency, no_lock.Fire_alarm.alarm_latency) with
  | Some s, Some n ->
    check Alcotest.bool "SMART delays the alarm by seconds" true (s > Ra_sim.Timebase.s 5);
    check Alcotest.bool "interruptible alarm within ~1 period" true
      (n < Ra_sim.Timebase.add (Ra_sim.Timebase.s 1) (Ra_sim.Timebase.ms 100));
    check Alcotest.bool "at least 5x contrast" true (s > 5 * n)
  | _ -> Alcotest.fail "alarm missing");
  check Alcotest.bool "SMART misses deadlines" true (smart.Fire_alarm.deadline_misses > 0);
  check Alcotest.int "No-Lock misses none" 0 no_lock.Fire_alarm.deadline_misses

let test_fire_alarm_locking_availability () =
  let all_lock = Fire_alarm.run_scheme Scheme.all_lock in
  let inc_lock = Fire_alarm.run_scheme Scheme.inc_lock in
  check Alcotest.bool "all-lock stalls writes" true
    (all_lock.Fire_alarm.app_blocked_ns > Ra_sim.Timebase.s 1);
  check Alcotest.bool "inc-lock stalls far less" true
    (inc_lock.Fire_alarm.app_blocked_ns * 10 < all_lock.Fire_alarm.app_blocked_ns)

(* --- Ablations ---------------------------------------------------------------------- *)

(* Section 3.1.2 numerically: with hot data measured last, Dec-Lock stalls
   the app for most of the window while Inc-Lock barely does; with hot data
   first, the roles swap. Fire_alarm places data blocks at the end. *)
let test_ordering_ablation () =
  let dec = Fire_alarm.run_scheme ~seed:9 Scheme.dec_lock in
  let inc = Fire_alarm.run_scheme ~seed:9 Scheme.inc_lock in
  check Alcotest.bool "hot-data-last favours Inc-Lock" true
    (inc.Fire_alarm.app_blocked_ns * 10 < dec.Fire_alarm.app_blocked_ns);
  let table = Ablations.measurement_order ~seed:9 () in
  let contains needle =
    let rec scan i =
      i + String.length needle <= String.length table
      && (String.sub table i (String.length needle) = needle || scan (i + 1))
    in
    scan 0
  in
  check Alcotest.bool "table mentions both placements" true
    (contains "hot data measured first" && contains "hot data measured last")

let test_zero_data_ablation_matrix () =
  let data_block = 30 in
  let run scheme =
    Runs.run
      { Runs.default_setup with Runs.data_blocks = [ data_block ] }
      ~scheme
      ~adversary:
        (Runs.Malicious { behavior = Ra_malware.Malware.Static; block = data_block })
  in
  let plain = run Scheme.no_lock in
  check Alcotest.bool "malware in data region escapes" false plain.Runs.detected;
  check Alcotest.bool "and survives" true plain.Runs.malware_present_after;
  let zeroed = run (Scheme.with_zero_data Scheme.no_lock) in
  check Alcotest.bool "zeroing destroys it" false zeroed.Runs.malware_present_after

(* The hybrid design point: shuffled traversal plus Cpy-Lock detects both
   canonical adversaries in one interruptible round with zero write stall. *)
let test_hybrid_smarm_cpy_lock () =
  let scheme =
    {
      Scheme.name = "SMARM+Cpy-Lock";
      atomic = false;
      locking = Scheme.Cpy_lock;
      order = Scheme.Shuffled;
      zero_data = false;
    }
  in
  let rate behavior =
    fst
      (Runs.detection_rate Runs.default_setup ~scheme
         ~adversary:(Runs.Malicious { behavior; block = 40 })
         ~trials:15)
  in
  check (Alcotest.float 1e-9) "rover always caught" 1.0
    (rate (Ra_malware.Malware.Self_relocating Ra_malware.Malware.Uniform_hop));
  check (Alcotest.float 1e-9) "eraser always caught" 1.0
    (rate Ra_malware.Malware.Evasive_erase);
  let probe = Fire_alarm.run_scheme scheme in
  check Alcotest.int "zero write stall" 0 probe.Fire_alarm.app_blocked_ns

let test_platform_contrast_monotone () =
  let mcu = Ra_device.Cost_model.low_end_mcu in
  let odroid = Ra_device.Cost_model.odroid_xu4 in
  let t cost =
    Ra_device.Cost_model.hash_time cost Ra_crypto.Algo.SHA_256 ~bytes:(1024 * 1024)
  in
  check Alcotest.bool "MCU much slower" true (t mcu > 20 * t odroid)

(* --- DoS (SeED's resilience claim) ---------------------------------------------------- *)

let test_dos_modes () =
  (* SeED ignores the flood entirely *)
  let seed_mode = Dos.run ~mode:Dos.Non_interactive ~rate_per_s:1000. () in
  check (Alcotest.float 1e-9) "seed burns nothing" 0. seed_mode.Dos.attacker_cpu_fraction;
  check Alcotest.bool "seed app unaffected" true (seed_mode.Dos.app_max_latency_s < 0.01);
  (* the naive measure-on-request prover is degraded even at 1 req/s *)
  let naive = Dos.run ~mode:Dos.Measure_on_request ~rate_per_s:1. () in
  check Alcotest.bool "naive prover burns CPU" true
    (naive.Dos.attacker_cpu_fraction > 0.2);
  check Alcotest.bool "naive app latency blows up" true (naive.Dos.app_max_latency_s > 0.3);
  (* authentication bounds the damage *)
  let auth = Dos.run ~mode:Dos.Authenticate_then_drop ~rate_per_s:1000. () in
  check Alcotest.bool "auth caps the cost" true (auth.Dos.attacker_cpu_fraction < 0.25);
  check Alcotest.bool "auth keeps the app fast" true (auth.Dos.app_max_latency_s < 0.01)

let test_dos_monotone_in_rate () =
  let fraction rate =
    (Dos.run ~mode:Dos.Authenticate_then_drop ~rate_per_s:rate ()).Dos.attacker_cpu_fraction
  in
  check Alcotest.bool "more flood, more burn" true (fraction 1000. > fraction 10.)

(* --- Advisor (Table 1 as a decision procedure) ----------------------------------------- *)

let top_scheme profile = (List.hd (Advisor.recommend profile)).Advisor.scheme

let test_advisor_fire_alarm () =
  (* the paper's own scenario: tight deadline, writes, MPU, no shadows *)
  let pick = top_scheme Advisor.default_profile in
  check Alcotest.bool "an MPU-based interruptible scheme wins" true
    (List.mem pick [ "Dec-Lock"; "Inc-Lock" ]);
  (* with shadow memory available, Cpy-Lock dominates *)
  let pick =
    top_scheme { Advisor.default_profile with Advisor.has_shadow_memory = true }
  in
  check Alcotest.string "shadow memory unlocks Cpy-Lock" "Cpy-Lock" pick

let test_advisor_unattended () =
  let profile =
    {
      Advisor.default_profile with
      Advisor.unattended = true;
      has_secure_clock = true;
      hard_deadline_ms = None;
    }
  in
  check Alcotest.string "unattended + clock -> ERASMUS" "ERASMUS" (top_scheme profile)

let test_advisor_legacy_device () =
  (* no MPU, no clock, no shadows: only software options remain viable *)
  let profile =
    {
      Advisor.default_profile with
      Advisor.has_mpu = false;
      transient_threat = false;
    }
  in
  check Alcotest.string "legacy device falls back to SMARM" "SMARM" (top_scheme profile)

let test_advisor_no_deadline () =
  let profile =
    { Advisor.default_profile with Advisor.hard_deadline_ms = None;
      writes_during_attestation = false }
  in
  check Alcotest.string "no deadline: SMART's simplicity wins" "SMART"
    (top_scheme profile);
  (* every recommendation carries its reasoning *)
  List.iter
    (fun r -> check Alcotest.bool "rationale present" true (r.Advisor.rationale <> []))
    (Advisor.recommend profile)

(* --- render smoke tests ------------------------------------------------------------------ *)

let test_render_smoke () =
  let nonempty label s = check Alcotest.bool label true (String.length s > 100) in
  nonempty "latency table" (Latency_profile.latency_table ());
  nonempty "lock gantt" (Latency_profile.lock_gantt Scheme.dec_lock);
  nonempty "incremental churn" (Incremental_eval.churn_table ());
  nonempty "advisor" (Advisor.render Advisor.default_profile)

(* --- Tablefmt ------------------------------------------------------------------------ *)

let test_tablefmt () =
  let out = Tablefmt.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333" ] ] in
  let lines = String.split_on_char '\n' out in
  check Alcotest.int "header + rule + 2 rows (+ trailing)" 5 (List.length lines);
  let series =
    Tablefmt.render_series ~x_label:"x"
      ~series:[ ("s1", [ ("10", "a"); ("2", "b") ]); ("s2", [ ("10", "c") ]) ]
  in
  (* x values keep first-appearance order: 10 before 2 *)
  let lines = String.split_on_char '\n' series in
  (match lines with
  | _header :: _rule :: first_row :: _ ->
    check Alcotest.bool "first x is 10" true (String.length first_row >= 2 && String.sub first_row 0 2 = "10")
  | _ -> Alcotest.fail "unexpected shape")

(* --- Benchkit JSON string round trips ----------------------------------------------- *)
(* Journal and campaign metadata flow through escape_string/parse_json; the
   string layer must survive control characters, backslash soup and raw
   multi-byte UTF-8 byte-for-byte. *)

let json_string_roundtrip s =
  match Benchkit.parse_json ("\"" ^ Benchkit.escape_string s ^ "\"") with
  | Benchkit.J_string s' -> s'
  | _ -> Alcotest.fail "escaped string did not parse back as a string"

let test_json_string_escapes () =
  let rt label s =
    check Alcotest.string label s (json_string_roundtrip s)
  in
  (* every control character, one by one and all together *)
  for c = 0 to 0x1f do
    rt (Printf.sprintf "control 0x%02x" c) (String.make 1 (Char.chr c))
  done;
  rt "all controls" (String.init 0x20 Char.chr);
  (* backslashes and quotes, including already-escaped-looking text *)
  rt "backslash" {|a\b|};
  rt "double backslash" {|a\\b|};
  rt "quote" {|say "hi"|};
  rt "escape-lookalike" {|\n\tA\\"|};
  rt "trailing backslash" "tail\\";
  (* multi-byte UTF-8 passes through raw: 2-, 3- and 4-byte sequences *)
  rt "latin-1 accent" "caf\xc3\xa9";
  rt "cjk" "\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e";
  rt "emoji" "\xf0\x9f\x94\xa5";
  rt "mixed" "wal\x00\\\"\n\xc3\xa9\xf0\x9f\x94\xa5 end";
  (* the emitter's own output for such a name parses back as a suite *)
  let suite =
    {
      Benchkit.suite = "journal \"kill\"\n\xe6\x97\xa5";
      metrics =
        [
          {
            Benchkit.name = "replay\\events\x01s";
            value = 42.;
            unit_ = "ev/s \xc3\xa9";
            direction = Benchkit.Higher_is_better;
            exact = true;
          };
        ];
    }
  in
  match Benchkit.parse_json (Benchkit.to_json suite) with
  | Benchkit.J_object fields ->
    (match List.assoc_opt "suite" fields with
    | Some (Benchkit.J_string s) ->
      check Alcotest.string "suite name round trips" suite.Benchkit.suite s
    | _ -> Alcotest.fail "no suite field");
    (match List.assoc_opt "metrics" fields with
    | Some (Benchkit.J_array [ Benchkit.J_object m ]) -> (
      match (List.assoc_opt "name" m, List.assoc_opt "unit" m) with
      | Some (Benchkit.J_string n), Some (Benchkit.J_string u) ->
        check Alcotest.string "metric name round trips" "replay\\events\x01s" n;
        check Alcotest.string "metric unit round trips" "ev/s \xc3\xa9" u
      | _ -> Alcotest.fail "metric fields missing")
    | _ -> Alcotest.fail "no metrics array")
  | _ -> Alcotest.fail "suite JSON did not parse as an object"

let json_roundtrip_prop =
  QCheck.Test.make ~count:500
    ~name:"parse_json (escape_string s) is the identity on any byte string"
    (QCheck.make
       ~print:(fun s -> Benchkit.escape_string s)
       QCheck.Gen.(string_size ~gen:char (int_bound 40)))
    (fun s -> String.equal s (json_string_roundtrip s))

(* --- Benchkit comparison over several file pairs --------------------------- *)

let test_compare_all_reports_every_pair () =
  let suite name value =
    {
      Benchkit.suite = name;
      metrics =
        [
          {
            Benchkit.name = name ^ "_count";
            value;
            unit_ = "count";
            direction = Benchkit.Higher_is_better;
            exact = true;
          };
        ];
    }
  in
  let report, ok =
    Benchkit.compare_all ~tolerance:0.2 ~keep:(fun _ -> true)
      [
        ("first", fun () -> (suite "crypto" 10., suite "crypto" 9.));
        ("unreadable", fun () -> raise (Sys_error "no such file"));
        ("second", fun () -> (suite "sim" 5., suite "sim" 4.));
        ("clean", fun () -> (suite "ok" 1., suite "ok" 1.));
      ]
  in
  let contains needle =
    let n = String.length needle and h = String.length report in
    let rec from i = i + n <= h && (String.sub report i n = needle || from (i + 1)) in
    from 0
  in
  check Alcotest.bool "gate fails" false ok;
  List.iter
    (fun line -> check Alcotest.bool line true (contains line))
    [
      "== crypto: first";
      "== unreadable: cannot read: no such file";
      "== sim: second";
      "== ok: clean";
    ];
  check Alcotest.int "both regressions reported" 2
    (List.length
       (List.filter
          (String.ends_with ~suffix:"REGRESSION")
          (String.split_on_char '\n' report)))

let () =
  Alcotest.run "ra_experiments"
    [
      ( "runs",
        [
          Alcotest.test_case "clean verifies" `Quick test_clean_runs_verify;
          Alcotest.test_case "deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "static malware caught" `Quick test_static_malware_all_schemes;
          Alcotest.test_case "table1 deterministic rows" `Quick test_table1_deterministic_rows;
          Alcotest.test_case "cpy-lock availability" `Quick test_cpy_lock_availability;
          Alcotest.test_case "detection rate" `Quick test_detection_rate_interval;
        ] );
      ( "smarm",
        [
          Alcotest.test_case "game vs theory" `Quick test_smarm_game_matches_theory;
          Alcotest.test_case "simulation vs theory" `Slow test_smarm_simulation_matches_theory;
          Alcotest.test_case "rounds compound" `Quick test_smarm_rounds_drive_escape_down;
        ] );
      ( "fig2",
        [
          Alcotest.test_case "claims" `Quick test_fig2_claims_hold;
          Alcotest.test_case "hash ordering" `Quick test_fig2_hash_ordering;
          Alcotest.test_case "render" `Quick test_fig2_render_nonempty;
        ] );
      ( "fig4",
        [
          Alcotest.test_case "paper matrix" `Quick test_fig4_matches_paper;
          Alcotest.test_case "extension windows" `Quick test_fig4_ext_windows;
        ] );
      ("fig5", [ Alcotest.test_case "story" `Quick test_fig5_story ]);
      ( "fire alarm",
        [
          Alcotest.test_case "latency contrast" `Quick test_fire_alarm_contrast;
          Alcotest.test_case "locking availability" `Quick test_fire_alarm_locking_availability;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "ordering" `Quick test_ordering_ablation;
          Alcotest.test_case "zero-data" `Quick test_zero_data_ablation_matrix;
          Alcotest.test_case "hybrid smarm+cpy" `Quick test_hybrid_smarm_cpy_lock;
          Alcotest.test_case "platform contrast" `Quick test_platform_contrast_monotone;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "fire alarm profile" `Quick test_advisor_fire_alarm;
          Alcotest.test_case "unattended profile" `Quick test_advisor_unattended;
          Alcotest.test_case "legacy device" `Quick test_advisor_legacy_device;
          Alcotest.test_case "no deadline" `Quick test_advisor_no_deadline;
        ] );
      ( "render smoke",
        [ Alcotest.test_case "nonempty artifacts" `Slow test_render_smoke ] );
      ( "dos",
        [
          Alcotest.test_case "mode contrast" `Quick test_dos_modes;
          Alcotest.test_case "monotone in rate" `Quick test_dos_monotone_in_rate;
        ] );
      ("tablefmt", [ Alcotest.test_case "render" `Quick test_tablefmt ]);
      ( "benchkit json",
        [
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          QCheck_alcotest.to_alcotest json_roundtrip_prop;
        ] );
      ( "bench compare",
        [
          Alcotest.test_case "every pair reported" `Quick
            test_compare_all_reports_every_pair;
        ] );
    ]
