open Ra_sim
open Ra_device

let mac_at device report ~time =
  let mem = device.Device.memory in
  let hash = report.Report.hash in
  Mp.mac_over ~hash ~key:device.Device.config.Device.key ~nonce:report.Report.nonce
    ~counter:report.Report.counter ~order:report.Report.order
    ~digest:(fun block ->
      Ra_crypto.Algo.digest hash (Memory.block_content_at mem ~time ~block))

let holds_at device report ~time =
  Ra_crypto.Bytesutil.constant_time_equal (mac_at device report ~time)
    report.Report.mac

let check_instants device report probes =
  List.map (fun (label, time) -> (label, time, holds_at device report ~time)) probes

let consistent_throughout device report ~from_ ~until =
  if until < from_ then invalid_arg "Consistency.consistent_throughout: bad interval";
  let mem = device.Device.memory in
  let write_instants =
    List.map fst (Memory.writes_between mem from_ until)
  in
  (* Memory only changes at journaled writes, so checking the endpoints and
     each write instant covers the continuum. *)
  List.for_all
    (fun time -> holds_at device report ~time)
    (from_ :: until :: write_instants)

let consistency_profile device report ~samples ~margin =
  if samples < 2 then invalid_arg "Consistency.consistency_profile: samples < 2";
  let start = max 0 (Timebase.sub report.Report.t_start margin) in
  let finish = Timebase.add report.Report.t_release margin in
  let span = Timebase.sub finish start in
  List.init samples (fun i ->
      let time = Timebase.add start (span * i / (samples - 1)) in
      (time, holds_at device report ~time))
