open Ra_sim
open Ra_core

(* Deterministic load: the prover side of the control plane. The plan is
   a pure function of (devices, seed, reports_per_device) — each report
   is produced by actually running the measurement process on a device
   provisioned from the same recipe the server's World uses, so the
   server verifies real evidence, not canned bytes. A deterministic
   fraction of the fleet is infected before it attests; their reports
   must come back Tampered on the server's verdict table, which is how
   the end-to-end tests check that verdicts survive the network boundary
   and a restart. *)

type item = { device : string; seq : int; report : Bytes.t }

let tamper_every = 7
let tamper_phase = 3

let is_tampered i = i mod tamper_every = tamper_phase

let expected_tampered ~devices =
  let n = ref 0 in
  for i = 0 to devices - 1 do
    if is_tampered i then incr n
  done;
  !n

let nonce ~seed ~device ~seq =
  Bytes.sub
    (Ra_crypto.Sha256.digest
       (Bytes.of_string (Printf.sprintf "loadgen nonce %d %s %d" seed device seq)))
    0 16

let by_device ~devices ~seed ~reports_per_device =
  if devices < 1 || reports_per_device < 1 then
    invalid_arg "Loadgen.plan: empty campaign";
  let fleet = Fleet.create ~master_secret:(World.master_secret ~seed) () in
  Array.init devices (fun i ->
      let id = World.device_id i in
      let dev = Fleet.provision fleet id ~config:World.device_config () in
      if is_tampered i then
        ignore
          (Ra_malware.Malware.install dev
             ~rng:(Prng.create ~seed:(seed lxor (0x5eed + i)))
             ~block:(3 + (i mod 5))
             ~priority:8 Ra_malware.Malware.Static);
      Array.init reports_per_device (fun s ->
          let seq = s + 1 in
          let out = ref None in
          Mp.run dev Mp.default_config
            ~nonce:(nonce ~seed ~device:id ~seq)
            ~on_complete:(fun r -> out := Some r)
            ();
          Ra_device.Device.run dev;
          match !out with
          | Some r -> { device = id; seq; report = Report.encode r }
          | None -> failwith "loadgen: measurement never completed"))

let plan ~devices ~seed ~reports_per_device =
  let by_device = by_device ~devices ~seed ~reports_per_device in
  (* Round-major order: every device's report 1, then every report 2 …
     one round is a synchronized burst of [devices] submissions, which is
     exactly the arrival pattern that overruns a bounded queue and forces
     the shedding path. *)
  Array.init (devices * reports_per_device) (fun k ->
      let s = k / devices and i = k mod devices in
      by_device.(i).(s))

let submit_payload item =
  Wire.encode_request
    (Wire.Submit { device = item.device; seq = item.seq; report = item.report })
