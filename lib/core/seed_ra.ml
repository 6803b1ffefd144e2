open Ra_sim
open Ra_device

type config = {
  mp : Mp.config;
  shared_seed : int;
  mean_interval : Timebase.t;
  first_after : Timebase.t;
}

let default_config =
  {
    mp = Mp.default_config;
    shared_seed = 0xD5EED;
    mean_interval = Timebase.s 30;
    first_after = Timebase.zero;
  }

(* Gaps uniform in [0.5, 1.5] * mean keep the schedule unpredictable without
   a shared clock drifting experiment out of scope. *)
let schedule ~shared_seed ~mean_interval ~first_after ~count =
  let rng = Prng.create ~seed:(shared_seed lxor 0x5EED) in
  let rec go t n acc =
    if n = 0 then List.rev acc
    else begin
      let factor = 0.5 +. Prng.float rng in
      let gap =
        max 1 (int_of_float (Float.round (float_of_int mean_interval *. factor)))
      in
      let t = Timebase.add t gap in
      go t (n - 1) (t :: acc)
    end
  in
  go first_after count []

type prover = {
  device : Device.t;
  config : config;
  send : Timebase.t * Report.t -> unit;
  mutable running : bool;
  mutable counter : int;
  mutable sent : int;
  mutable missed : int;
  rng : Prng.t; (* the secret trigger stream, inaccessible to malware *)
}

(* The timeout circuit is dedicated hardware: it keeps ticking through
   crashes and reboots, so it re-arms itself unconditionally. A trigger that
   fires while the CPU is down is simply missed — the verifier sees the
   absent report as a schedule gap. *)
let rec arm t =
  if t.running then begin
    let eng = t.device.Device.engine in
    let factor = 0.5 +. Prng.float t.rng in
    let gap =
      max 1
        (int_of_float (Float.round (float_of_int t.config.mean_interval *. factor)))
    in
    ignore
      (Engine.schedule_after eng ~delay:gap (fun _ ->
           if t.running then begin
             arm t;
             if Device.is_up t.device then begin
               t.counter <- t.counter + 1;
               let counter = t.counter in
               let nonce = Bytes.create 8 in
               Ra_crypto.Bytesutil.store64_be nonce 0 (Int64.of_int counter);
               Mp.run t.device
                 { t.config.mp with Mp.counter = Some counter }
                 ~nonce
                 ~on_complete:(fun report ->
                   t.sent <- t.sent + 1;
                   t.send (Engine.now eng, report))
                 ()
             end
             else t.missed <- t.missed + 1
           end))
  end

let start device config ~send =
  let t =
    {
      device;
      config;
      send;
      running = true;
      counter = 0;
      sent = 0;
      missed = 0;
      rng = Prng.create ~seed:(config.shared_seed lxor 0x5EED);
    }
  in
  ignore
    (Engine.schedule device.Device.engine ~at:config.first_after (fun _ -> arm t));
  t

let stop t = t.running <- false

let reports_sent t = t.sent

let missed_triggers t = t.missed

type outcome = { accepted : int; tampered : int; replayed : int; missing : int }

let monitor verifier ~expected ~tolerance received =
  let accepted = ref 0 and tampered = ref 0 and replayed = ref 0 in
  let last_counter = ref 0 in
  let valid = ref [] in
  List.iter
    (fun (time, report) ->
      match report.Report.counter with
      | None -> incr tampered
      | Some c ->
        if c <= !last_counter then incr replayed
        else begin
          match Verifier.verify verifier report with
          | Verifier.Clean ->
            last_counter := c;
            incr accepted;
            valid := time :: !valid
          | Verifier.Tampered ->
            last_counter := c;
            incr tampered;
            valid := time :: !valid
        end)
    received;
  let arrivals = List.rev !valid in
  let covered expected_time =
    List.exists
      (fun arrival ->
        arrival >= expected_time
        && Timebase.sub arrival expected_time <= tolerance)
      arrivals
  in
  let missing = List.length (List.filter (fun t -> not (covered t)) expected) in
  { accepted = !accepted; tampered = !tampered; replayed = !replayed; missing }
