open Ra_sim
open Ra_device

type events = {
  request_sent : Timebase.t;
  request_received : Timebase.t;
  mp_started : Timebase.t;
  mp_finished : Timebase.t;
  report_sent : Timebase.t;
  report_received : Timebase.t;
  verdict : Verifier.verdict;
  report : Report.t;
}

let events_to_markers e =
  [
    ("request sent", e.request_sent);
    ("request received", e.request_received);
    ("ts: MP starts", e.mp_started);
    ("te: MP done", e.mp_finished);
    ("report sent", e.report_sent);
    ("report received & verified", e.report_received);
  ]

let on_demand device verifier mp_config ?(hooks = Mp.null_hooks) ~net_delay
    ~auth_time ~on_done () =
  let eng = device.Device.engine in
  let nonce = Prng.bytes (Engine.prng eng) 16 in
  let request_sent = Engine.now eng in
  ignore
    (Engine.schedule_after eng ~delay:net_delay (fun _ ->
         let request_received = Engine.now eng in
         (* Request authentication runs at the MP's priority: on a busy
            device the measurement is deferred, as Fig. 1 illustrates. *)
         ignore
           (Cpu.submit device.Device.cpu ~name:"mp-auth"
              ~priority:mp_config.Mp.priority ~duration:auth_time
              ~on_complete:(fun () ->
                Mp.run device mp_config ~nonce ~hooks
                  ~on_complete:(fun report ->
                    let report_sent = Engine.now eng in
                    ignore
                      (Engine.schedule_after eng ~delay:net_delay (fun _ ->
                           let report_received = Engine.now eng in
                           let verdict = Verifier.verify_fresh verifier ~nonce report in
                           on_done
                             {
                               request_sent;
                               request_received;
                               mp_started = report.Report.t_start;
                               mp_finished = report.Report.t_end;
                               report_sent;
                               report_received;
                               verdict;
                               report;
                             })))
                  ())
              ())))
