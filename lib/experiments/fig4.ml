open Ra_sim
open Ra_device
open Ra_core

type result = {
  scheme : string;
  t_start : Timebase.t;
  t_end : Timebase.t;
  t_release : Timebase.t;
  consistent_at_start : bool;
  consistent_at_end : bool;
  consistent_at_release : bool;
  consistent_throughout_measure : bool;
  consistent_throughout_release : bool;
  write_b_landed_in_window : bool;
  profile : (Timebase.t * bool) list;
}

let ext_delay = Timebase.s 2

let schemes =
  [
    Scheme.smart;
    Scheme.no_lock;
    Scheme.all_lock;
    Scheme.all_lock_ext ext_delay;
    Scheme.dec_lock;
    Scheme.inc_lock;
    Scheme.inc_lock_ext ext_delay;
    Scheme.cpy_lock;
  ]

(* 8 blocks of ~0.5 s each: a 4 s measurement window with readable probes. *)
let blocks = 8
let block_real_bytes = 256
let modeled_block_bytes = 56 * 1024 * 1024
let mp_start = Timebase.s 1

(* ralint: allow P2 — constant write payload; Memory.set_block copies it
   into the block, so sharing across trials/domains is read-only. *)
let payload = Bytes.of_string "fig4-injected-write-payload!"

(* A writer task: attempts the write as a 1 us high-priority CPU job (so
   SMART's atomicity defers it past te, and the journal entry lands strictly
   after the measurement window); if the block is locked, it resumes 1 us
   after the block is next released — the stalled critical task of
   Section 3.1. *)
let inject device ~at ~block =
  let eng = device.Device.engine in
  let mem = device.Device.memory in
  let rec attempt () =
    match
      Memory.write mem ~time:(Engine.now eng) ~block ~offset:0 payload
    with
    | Ok () -> ()
    | Error (Memory.Locked _) ->
      let armed = ref true in
      Memory.subscribe_unlock mem (fun unlocked ->
          if !armed && unlocked = block then begin
            armed := false;
            ignore (Engine.schedule_after eng ~delay:(Timebase.us 1) (fun _ -> attempt ()))
          end)
  in
  ignore
    (Engine.schedule eng ~at (fun _ ->
         ignore
           (Cpu.submit device.Device.cpu ~name:"writer" ~priority:9
              ~duration:(Timebase.us 1) ~on_complete:attempt ())))

let run_scheme ?(seed = 7) scheme =
  let device =
    Device.create
      {
        Device.default_config with
        Device.seed;
        blocks;
        block_size = block_real_bytes;
        modeled_block_bytes;
      }
  in
  let mp_config = { Mp.default_config with Mp.scheme } in
  let report = ref None in
  (* Probe writes: A before ts; B twice inside the window — early (before
     block 5 is measured) and late (after block 2 is measured) so No-Lock is
     consistent nowhere; C between te and tr; D after tr. *)
  inject device ~at:(Timebase.ms 500) ~block:1;
  inject device ~at:(Timebase.add mp_start (Timebase.ms 1200)) ~block:5;
  inject device ~at:(Timebase.add mp_start (Timebase.ms 1700)) ~block:2;
  let te_estimate = Timebase.add mp_start (Timebase.ms (4 * 1000 + 50)) in
  inject device ~at:(Timebase.add te_estimate (Timebase.ms 500)) ~block:3;
  inject device
    ~at:(Timebase.add te_estimate (Timebase.add ext_delay (Timebase.s 1)))
    ~block:4;
  ignore
    (Engine.schedule device.Device.engine ~at:mp_start (fun eng ->
         Mp.run device mp_config
           ~nonce:(Prng.bytes (Engine.prng eng) 16)
           ~on_complete:(fun r -> report := Some r)
           ()));
  Engine.run device.Device.engine;
  match !report with
  | None -> failwith "Fig4.run_scheme: no report"
  | Some r ->
    let ts = r.Report.t_start
    and te = r.Report.t_end
    and tr = r.Report.t_release in
    let holds time = Consistency.holds_at device r ~time in
    {
      scheme = scheme.Scheme.name;
      t_start = ts;
      t_end = te;
      t_release = tr;
      consistent_at_start = holds ts;
      consistent_at_end = holds te;
      consistent_at_release = holds tr;
      consistent_throughout_measure =
        Consistency.consistent_throughout device r ~from_:ts ~until:te;
      consistent_throughout_release =
        Consistency.consistent_throughout device r ~from_:ts ~until:tr;
      write_b_landed_in_window =
        Memory.writes_between device.Device.memory ts te <> [];
      profile =
        Consistency.consistency_profile device r ~samples:64 ~margin:(Timebase.s 1);
    }

let mark b = if b then "yes" else "no"

let render ?seed () =
  let results = List.map (fun s -> run_scheme ?seed s) schemes in
  let rows =
    List.map
      (fun r ->
        [
          r.scheme;
          mark r.consistent_at_start;
          mark r.consistent_at_end;
          mark r.consistent_at_release;
          mark r.consistent_throughout_measure;
          mark r.consistent_throughout_release;
          mark r.write_b_landed_in_window;
        ])
      results
  in
  let table =
    Tablefmt.render
      ~header:
        [
          "scheme";
          "cons@ts";
          "cons@te";
          "cons@tr";
          "cons[ts,te]";
          "cons[ts,tr]";
          "write in window";
        ]
      rows
  in
  let strips =
    List.map
      (fun r ->
        Timeline.render_profile
          ~label:(Printf.sprintf "%s (# consistent, . not)" r.scheme)
          r.profile)
      results
  in
  "Fig. 4 / E4 — temporal consistency under injected writes\n" ^ table ^ "\n"
  ^ String.concat "\n" strips

type expectation = { scheme : string; at_start : bool; at_end : bool; throughout : bool }

let expected =
  [
    { scheme = "SMART"; at_start = true; at_end = true; throughout = true };
    { scheme = "No-Lock"; at_start = false; at_end = false; throughout = false };
    { scheme = "All-Lock"; at_start = true; at_end = true; throughout = true };
    { scheme = "All-Lock-Ext"; at_start = true; at_end = true; throughout = true };
    { scheme = "Dec-Lock"; at_start = true; at_end = false; throughout = false };
    { scheme = "Inc-Lock"; at_start = false; at_end = true; throughout = false };
    { scheme = "Inc-Lock-Ext"; at_start = false; at_end = true; throughout = false };
    { scheme = "Cpy-Lock"; at_start = true; at_end = true; throughout = true };
  ]
