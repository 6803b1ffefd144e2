open Ra_sim
open Ra_device

type config = {
  mp : Mp.config;
  period : Timebase.t;
  first_at : Timebase.t;
  capacity : int;
  defer_if_app_running : Timebase.t option;
  persistent_log : bool;
}

let default_config =
  {
    mp = Mp.default_config;
    period = Timebase.s 10;
    first_at = Timebase.zero;
    capacity = 32;
    defer_if_app_running = None;
    persistent_log = false;
  }

type t = {
  device : Device.t;
  config : config;
  hooks : Mp.hooks;
  mutable running : bool;
  mutable counter : int;
  mutable reports : Report.t list; (* newest first, clipped to capacity *)
  mutable reports_lost_to_crash : int;
}

let counter_nonce counter =
  let b = Bytes.create 8 in
  Ra_crypto.Bytesutil.store64_be b 0 (Int64.of_int counter);
  b

let store t report =
  let rec clip n = function
    | [] -> []
    | _ when n = 0 -> []
    | r :: rest -> r :: clip (n - 1) rest
  in
  t.reports <- clip t.config.capacity (report :: t.reports)

(* Timers armed before a crash still fire (the engine models the outside
   world), so every scheduled continuation captures the boot epoch and goes
   quiet if the device rebooted in between; the reboot hook re-arms the
   schedule exactly once. *)
let rec measure t =
  if t.running && Device.is_up t.device then begin
    let eng = t.device.Device.engine in
    let ep = Device.epoch t.device in
    let busy_with_higher_priority () =
      match Cpu.running t.device.Device.cpu with
      | Some (_, priority) -> priority > t.config.mp.Mp.priority
      | None -> false
    in
    match t.config.defer_if_app_running with
    | Some delay when busy_with_higher_priority () ->
      ignore
        (Engine.schedule_after eng ~delay (fun _ ->
             if Device.epoch t.device = ep then measure t))
    | Some _ | None ->
      t.counter <- t.counter + 1;
      let counter = t.counter in
      Mp.run t.device
        { t.config.mp with Mp.counter = Some counter }
        ~nonce:(counter_nonce counter) ~hooks:t.hooks
        ~on_complete:(store t)
        ();
      ignore
        (Engine.schedule_after eng ~delay:t.config.period (fun _ ->
             if Device.epoch t.device = ep then measure t))
  end

let start device ?(hooks = Mp.null_hooks) config =
  if config.capacity < 1 then invalid_arg "Erasmus.start: capacity < 1";
  let t =
    {
      device;
      config;
      hooks;
      running = true;
      counter = 0;
      reports = [];
      reports_lost_to_crash = 0;
    }
  in
  (* The monotonic counter is hardware (it survives reboots, which is what
     makes log gaps detectable); the report log is RAM unless the config
     says it is flash-backed. *)
  Device.on_crash device (fun () ->
      if not config.persistent_log then begin
        t.reports_lost_to_crash <-
          t.reports_lost_to_crash + List.length t.reports;
        t.reports <- []
      end);
  Device.on_reboot device (fun () -> if t.running then measure t);
  let ep = Device.epoch device in
  ignore
    (Engine.schedule device.Device.engine ~at:config.first_at (fun _ ->
         if Device.epoch device = ep then measure t));
  t

let stop t = t.running <- false

let stored t = List.rev t.reports

let collect t ~max:limit =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | r :: rest -> r :: take (n - 1) rest
  in
  List.rev (take limit t.reports)

let measurements_taken t = t.counter

let reports_lost_to_crash t = t.reports_lost_to_crash

let on_demand_measure t ~nonce ~on_complete =
  t.counter <- t.counter + 1;
  Mp.run t.device
    { t.config.mp with Mp.counter = Some t.counter }
    ~hooks:t.hooks ~nonce
    ~on_complete:(fun report ->
      store t report;
      on_complete report)
    ()

(* --- collection-time audit ---------------------------------------------- *)

type audit = {
  audit_clean : int;
  audit_tampered : int;
  gaps : (int * int) list;
  out_of_order : int;
}

let audit ?expect_from verifier reports =
  let clean = ref 0 and tampered = ref 0 in
  let gaps = ref [] and out_of_order = ref 0 in
  let prev = ref (Option.map (fun c -> c - 1) expect_from) in
  List.iter
    (fun report ->
      (match Verifier.verify verifier report with
      | Verifier.Clean -> incr clean
      | Verifier.Tampered -> incr tampered);
      match report.Report.counter with
      | None -> incr out_of_order
      | Some c ->
        (match !prev with
        | Some p when c <= p -> incr out_of_order
        | Some p when c > p + 1 -> gaps := (p + 1, c - 1) :: !gaps
        | Some _ | None -> ());
        (match !prev with
        | Some p when c <= p -> () (* keep the high-water mark *)
        | _ -> prev := Some c))
    reports;
  {
    audit_clean = !clean;
    audit_tampered = !tampered;
    gaps = List.rev !gaps;
    out_of_order = !out_of_order;
  }
