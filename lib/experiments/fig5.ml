open Ra_sim
open Ra_device
open Ra_core

type story = {
  t_m : Timebase.t;
  t_c : Timebase.t;
  infection1 : Timebase.t * Timebase.t;
  infection2 : Timebase.t * Timebase.t;
  infection1_detected : bool;
  infection2_detected : bool;
  measurements : Timebase.t list;
  collections : Timebase.t list;
  markers : (string * Timebase.t) list;
}

let make_device ~seed =
  Device.create
    {
      Device.default_config with
      Device.seed = seed;
      blocks = 64;
      block_size = 256;
      modeled_block_bytes = 1024 * 1024; (* 64 MiB total: MP ~ 0.58 s *)
    }

let mp_duration_model device =
  Cost_model.hash_time device.Device.config.Device.cost Ra_crypto.Algo.SHA_256
    ~bytes:(Device.attested_bytes device)

let install_transient device ~block ~enter ~leave =
  let rng = Prng.split (Engine.prng device.Device.engine) in
  Ra_malware.Malware.install device ~rng ~block ~priority:8
    (Ra_malware.Malware.Transient { enter; leave })

(* A tampered report is attributed to an infection when its measurement
   window overlaps the dwell interval. *)
let window_overlaps report (enter, leave) =
  let ts = report.Report.t_start and te = report.Report.t_end in
  ts <= leave && te >= enter

let run_story ?(seed = 11) () =
  let device = make_device ~seed in
  let eng = device.Device.engine in
  let verifier = Verifier.of_device device in
  let t_m = Timebase.s 10 and t_c = Timebase.s 35 in
  let infection1 = (Timebase.s 13, Timebase.s 16) in
  let infection2 = (Timebase.s 47, Timebase.s 62) in
  let _m1 =
    install_transient device ~block:10 ~enter:(fst infection1) ~leave:(snd infection1)
  in
  let _m2 =
    install_transient device ~block:30 ~enter:(fst infection2) ~leave:(snd infection2)
  in
  let erasmus =
    Erasmus.start device
      { Erasmus.default_config with Erasmus.period = t_m; first_at = t_m }
  in
  let collections = ref [] in
  let collected = ref [] in
  let rec collect_at at =
    if at <= Timebase.s 80 then
      ignore
        (Engine.schedule eng ~at (fun _ ->
             collections := at :: !collections;
             collected := !collected @ Erasmus.collect erasmus ~max:8;
             collect_at (Timebase.add at t_c)))
  in
  collect_at t_c;
  Engine.run ~until:(Timebase.s 80) eng;
  Erasmus.stop erasmus;
  Engine.run ~until:(Timebase.s 85) eng;
  let reports = Erasmus.stored erasmus in
  let tampered =
    List.filter (fun r -> Verifier.verify verifier r = Verifier.Tampered) reports
  in
  let detected infection = List.exists (fun r -> window_overlaps r infection) tampered in
  let measurements = List.map (fun r -> r.Report.t_start) reports in
  let markers =
    List.concat
      [
        List.mapi (fun i t -> (Printf.sprintf "measurement %d" (i + 1), t)) measurements;
        List.map (fun t -> ("collection", t)) (List.rev !collections);
        [
          ("infection 1 enters", fst infection1);
          ("infection 1 leaves", snd infection1);
          ("infection 2 enters", fst infection2);
          ("infection 2 leaves", snd infection2);
        ];
      ]
  in
  let markers = List.sort (fun (_, a) (_, b) -> Timebase.compare a b) markers in
  {
    t_m;
    t_c;
    infection1;
    infection2;
    infection1_detected = detected infection1;
    infection2_detected = detected infection2;
    measurements;
    collections = List.rev !collections;
    markers;
  }

let render_story ?seed () =
  let s = run_story ?seed () in
  let verdict name d expected =
    Printf.sprintf "%s: %s (paper: %s)" name
      (if d then "DETECTED" else "undetected")
      expected
  in
  "Fig. 5 / E6 — QoA: transient malware vs self-measurement schedule\n"
  ^ Printf.sprintf "T_M = %s, T_C = %s\n"
      (Timebase.to_string s.t_m) (Timebase.to_string s.t_c)
  ^ Timeline.render s.markers
  ^ verdict "Infection 1 (dwell between measurements)" s.infection1_detected
      "undetected"
  ^ "\n"
  ^ verdict "Infection 2 (dwell spans a measurement)" s.infection2_detected
      "detected"
  ^ "\n"

let detection_sweep ?(seed = 23) ?(trials = 100) ~t_m ~dwells () =
  let rows =
    List.map
      (fun dwell ->
        let detected = ref 0 in
        let mp_dur = ref Timebase.zero in
        for trial = 0 to trials - 1 do
          let device = make_device ~seed:(seed + (7919 * trial)) in
          let eng = device.Device.engine in
          mp_dur := mp_duration_model device;
          let verifier = Verifier.of_device device in
          let phase =
            Prng.int (Engine.prng eng) ~bound:t_m
          in
          let enter = Timebase.add (Timebase.s 15) phase in
          let leave = Timebase.add enter dwell in
          let _mal = install_transient device ~block:20 ~enter ~leave in
          let erasmus =
            Erasmus.start device
              { Erasmus.default_config with Erasmus.period = t_m; first_at = t_m }
          in
          let horizon = Timebase.add leave (Timebase.add t_m (Timebase.s 5)) in
          Engine.run ~until:horizon eng;
          Erasmus.stop erasmus;
          Engine.run ~until:(Timebase.add horizon (Timebase.s 5)) eng;
          let tampered =
            List.exists
              (fun r -> Verifier.verify verifier r = Verifier.Tampered)
              (Erasmus.stored erasmus)
          in
          if tampered then incr detected
        done;
        let rate = float_of_int !detected /. float_of_int trials in
        let analytic =
          Qoa.detection_probability
            { Qoa.t_m; t_c = t_m; mp_duration = !mp_dur }
            ~dwell
        in
        [
          Timebase.to_string dwell;
          Printf.sprintf "%.2f" rate;
          Printf.sprintf "%.2f" analytic;
        ])
      dwells
  in
  Printf.sprintf
    "E6 sweep — transient malware detection probability (T_M = %s, %d trials)\n"
    (Timebase.to_string t_m) trials
  ^ Tablefmt.render ~header:[ "dwell"; "measured"; "analytic" ] rows

let freshness_table () =
  let mp = Timebase.ms 580 in
  let combos =
    [
      ("on-demand, hourly", Qoa.on_demand ~mp_duration:mp ~request_period:(Timebase.minutes 60));
      ("on-demand, every 5 min", Qoa.on_demand ~mp_duration:mp ~request_period:(Timebase.minutes 5));
      ( "ERASMUS T_M=1min, T_C=1h",
        { Qoa.t_m = Timebase.minutes 1; t_c = Timebase.minutes 60; mp_duration = mp } );
      ( "ERASMUS T_M=10s, T_C=1h",
        { Qoa.t_m = Timebase.s 10; t_c = Timebase.minutes 60; mp_duration = mp } );
      ( "ERASMUS T_M=10s, T_C=5min",
        { Qoa.t_m = Timebase.s 10; t_c = Timebase.minutes 5; mp_duration = mp } );
    ]
  in
  let rows =
    List.map
      (fun (label, q) ->
        [
          label;
          Timebase.to_string (Qoa.min_dwell_always_detected q);
          Timebase.to_string (Qoa.worst_case_detection_delay q);
          Printf.sprintf "%.3f" (Qoa.detection_probability q ~dwell:(Timebase.s 30));
        ])
      combos
  in
  "E6 — decoupling T_M from T_C (Section 3.3)\n"
  ^ Tablefmt.render
      ~header:
        [ "configuration"; "dwell always caught"; "worst-case delay"; "P(detect 30s dwell)" ]
      rows
