open Ra_sim

type config = {
  seed : int;
  blocks : int;
  block_size : int;
  modeled_block_bytes : int;
  data_blocks : int list;
  cost : Cost_model.t;
  key : Bytes.t;
  digest_cache : bool;
  store : Ra_cache.Store.t option;
}

(* ralint: allow P2 — the shared demo key Bytes is treated as immutable
   by every consumer (HMAC/CMAC read it, nothing writes); configs derived
   with { default_config with ... } alias it deliberately. *)
let default_config =
  {
    seed = 1;
    blocks = 64;
    block_size = 1024;
    modeled_block_bytes = 16 * 1024 * 1024;
    data_blocks = [];
    cost = Cost_model.odroid_xu4;
    key = Bytes.of_string "ra-safety-demo-attestation-key!!";
    digest_cache = true;
    store = None;
  }

type t = {
  engine : Engine.t;
  cpu : Cpu.t;
  memory : Memory.t;
  config : config;
  cache : Ra_cache.t option;
  mutable epoch : int;
  mutable up : bool;
  mutable crash_count : int;
  mutable last_boot_at : Timebase.t;
  mutable crash_hooks : (unit -> unit) list;
  mutable reboot_hooks : (unit -> unit) list;
}

(* The image is a pure function of the seed so prover and verifier can build
   identical copies without shipping the bytes around. *)
let firmware_image ~seed ~size =
  let rng = Prng.create ~seed:(seed lxor 0x46495257 (* "FIRW" *)) in
  Prng.bytes rng size

(* Fleet members share one release, so with a store the image is built
   once per (seed, size) and borrowed from then on; Memory copies each
   block out of it, so no device write can reach the shared bytes. *)
let image config =
  let size = config.blocks * config.block_size in
  match config.store with
  | Some store -> Ra_cache.Store.image store ~seed:config.seed ~size firmware_image
  | None -> firmware_image ~seed:config.seed ~size

let create config =
  if config.blocks <= 0 then invalid_arg "Device.create: no blocks";
  List.iter
    (fun b ->
      if b < 0 || b >= config.blocks then
        invalid_arg "Device.create: data block out of range")
    config.data_blocks;
  let engine = Engine.create ~seed:config.seed () in
  {
    engine;
    cpu = Cpu.create engine;
    memory = Memory.create ~image:(image config) ~block_size:config.block_size;
    config;
    cache =
      (if config.digest_cache then Some (Ra_cache.create ?store:config.store ())
       else None);
    epoch = 0;
    up = true;
    crash_count = 0;
    last_boot_at = Timebase.zero;
    crash_hooks = [];
    reboot_hooks = [];
  }

let attested_bytes t = t.config.blocks * t.config.modeled_block_bytes

let is_data_block t block = List.mem block t.config.data_blocks

let run ?until t = Engine.run ?until t.engine

(* --- crash / reboot ------------------------------------------------------ *)

let epoch t = t.epoch

let is_up t = t.up

let crash_count t = t.crash_count

let last_boot_at t = t.last_boot_at

let on_crash t f = t.crash_hooks <- t.crash_hooks @ [ f ]

let on_reboot t f = t.reboot_hooks <- t.reboot_hooks @ [ f ]

let crash ?(reboot_delay = Timebase.ms 250) t =
  if reboot_delay < 0 then invalid_arg "Device.crash: negative reboot delay";
  if t.up then begin
    let eng = t.engine in
    t.up <- false;
    t.epoch <- t.epoch + 1;
    t.crash_count <- t.crash_count + 1;
    Engine.recordf eng ~tag:"device" "CRASH #%d: volatile state lost, reboot in %s"
      t.crash_count
      (Timebase.to_string reboot_delay);
    (* Power loss: every CPU job dies mid-flight (no completions), MPU locks
       are volatile and come up open. *)
    Cpu.flush t.cpu;
    Memory.unlock_all ~time:(Engine.now eng) t.memory;
    List.iter (fun f -> f ()) t.crash_hooks;
    ignore
      (Engine.schedule_after eng ~delay:reboot_delay (fun _ ->
           t.up <- true;
           t.last_boot_at <- Engine.now eng;
           Engine.recordf eng ~tag:"device" "boot complete (epoch %d)" t.epoch;
           List.iter (fun f -> f ()) t.reboot_hooks))
  end
