open Ra_sim

type config = {
  name : string;
  period : Timebase.t;
  execution : Timebase.t;
  priority : int;
  deadline : Timebase.t option;
  data_blocks : int list;
  write_bytes : int;
  first_activation : Timebase.t;
}

let default_config =
  {
    name = "critical-app";
    period = Timebase.s 1;
    execution = Timebase.ms 2;
    priority = 10;
    deadline = Some (Timebase.s 1);
    data_blocks = [];
    write_bytes = 0;
    first_activation = Timebase.zero;
  }

type t = {
  engine : Engine.t;
  cpu : Cpu.t;
  memory : Memory.t;
  config : config;
  on_run : unit -> unit;
  mutable running : bool;
  mutable activation_count : int;
  mutable completion_count : int;
  latencies : Stats.t;
  mutable deadline_misses : int;
  mutable blocked_ns : int;
  mutable fire_at : Timebase.t option;
  mutable alarm_at : Timebase.t option;
}

let sample_payload t =
  (* Fresh content per activation so the write journal shows real churn. *)
  Bytes.make t.config.write_bytes (Char.chr (t.activation_count land 0xff))

(* Perform the activation's writes in order, stalling on locked blocks.
   [stalled_since] carries the instant the current stall began. *)
let rec perform_writes t ~activated ~payload = function
  | [] -> finish_activation t ~activated
  | block :: rest ->
    let now = Engine.now t.engine in
    (match Memory.write t.memory ~time:now ~block ~offset:0 payload with
    | Ok () -> perform_writes t ~activated ~payload rest
    | Error (Memory.Locked _) ->
      let stall_started = now in
      (* One-shot resume on the next unlock of this block. *)
      let armed = ref true in
      Memory.subscribe_unlock t.memory (fun unlocked ->
          if !armed && unlocked = block then begin
            armed := false;
            t.blocked_ns <-
              t.blocked_ns + Timebase.sub (Engine.now t.engine) stall_started;
            perform_writes t ~activated ~payload (block :: rest)
          end))

and finish_activation t ~activated =
  let now = Engine.now t.engine in
  t.completion_count <- t.completion_count + 1;
  let latency = Timebase.sub now activated in
  Stats.add t.latencies (Timebase.to_seconds latency);
  (match t.config.deadline with
  | Some d when latency > d -> t.deadline_misses <- t.deadline_misses + 1
  | Some _ | None -> ())

let compute_done t ~activated =
  let now = Engine.now t.engine in
  (* Sensing happens during compute: the first compute phase that completes
     after the fire started is the one that detects it. *)
  (match (t.fire_at, t.alarm_at) with
  | Some fire, None when now >= fire -> t.alarm_at <- Some now
  | Some _, (Some _ | None) | None, (Some _ | None) -> ());
  t.on_run ();
  let payload = sample_payload t in
  perform_writes t ~activated ~payload t.config.data_blocks

let rec activate t =
  if t.running then begin
    let activated = Engine.now t.engine in
    t.activation_count <- t.activation_count + 1;
    ignore
      (Cpu.submit t.cpu ~name:t.config.name ~priority:t.config.priority
         ~duration:t.config.execution
         ~on_complete:(fun () -> compute_done t ~activated)
         ());
    ignore
      (Engine.schedule_after t.engine ~delay:t.config.period (fun _ -> activate t))
  end

let start engine cpu memory ?(on_run = fun () -> ()) config =
  let t =
    {
      engine;
      cpu;
      memory;
      config;
      on_run;
      running = true;
      activation_count = 0;
      completion_count = 0;
      latencies = Stats.create ();
      deadline_misses = 0;
      blocked_ns = 0;
      fire_at = None;
      alarm_at = None;
    }
  in
  ignore
    (Engine.schedule engine ~at:config.first_activation (fun _ -> activate t));
  t

let stop t = t.running <- false

let activations t = t.activation_count
let completions t = t.completion_count
let latencies t = t.latencies
let deadline_misses t = t.deadline_misses
let blocked_ns t = t.blocked_ns

let declare_fire t ~at = t.fire_at <- Some at

let alarm_latency t =
  match (t.fire_at, t.alarm_at) with
  | Some fire, Some alarm -> Some (Timebase.sub alarm fire)
  | Some _, None | None, (Some _ | None) -> None
