open Ra_sim
open Ra_device

type config = {
  scheme : Scheme.t;
  hash : Ra_crypto.Algo.hash;
  signature : Cost_model.signature_alg option;
  priority : int;
  counter : int option;
}

let default_config =
  {
    scheme = Scheme.smart;
    hash = Ra_crypto.Algo.SHA_256;
    signature = None;
    priority = 5;
    counter = None;
  }

type hooks = {
  on_start : unit -> unit;
  on_block_measured : measured:int -> total:int -> unit;
}

let null_hooks = { on_start = (fun () -> ()); on_block_measured = (fun ~measured:_ ~total:_ -> ()) }

(* The one report transcript, prover and verifier side:
   MAC(key, nonce || counter? || (index || digest) per block in order).
   One scratch word carries the counter and each index, so the loop
   allocates nothing per block. *)
let mac_over ~hash ~key ~nonce ~counter ~order ~digest =
  let ctx = Ra_crypto.Mac_stream.create hash ~key in
  let word = Bytes.create 8 in
  Ra_crypto.Mac_stream.update ctx nonce;
  Option.iter
    (fun c ->
      Ra_crypto.Bytesutil.store64_be word 0 (Int64.of_int c);
      Ra_crypto.Mac_stream.update_sub ctx word ~pos:0 ~len:8)
    counter;
  Array.iter
    (fun block ->
      Ra_crypto.Bytesutil.store32_be word 0 block;
      Ra_crypto.Mac_stream.update_sub ctx word ~pos:0 ~len:4;
      Ra_crypto.Mac_stream.update ctx (digest block))
    order;
  Ra_crypto.Mac_stream.finalize ctx

(* Digest one block through the device's cache when it has one: a hit on
   an unchanged version (or on identical content in the shared store)
   skips the host-side hash. Reads are zero-copy; the returned digest is
   shared and must not be mutated. *)
let block_digest device hash block =
  let mem = device.Device.memory in
  Memory.with_block mem block (fun content ->
      match device.Device.cache with
      | Some cache ->
        Ra_cache.block_digest cache hash ~block ~version:(Memory.version mem block)
          content
      | None -> Ra_crypto.Algo.digest hash content)

(* Shared run state threaded through the per-block continuation chain. *)
type state = {
  device : Device.t;
  config : config;
  nonce : Bytes.t;
  hooks : hooks;
  order : int array;
  digests : Bytes.t array; (* by block, stored as each block is measured *)
  mutable data_copy : (int * Bytes.t) list;
  t_start : Timebase.t;
  on_complete : Report.t -> unit;
}

let engine st = st.device.Device.engine
let memory st = st.device.Device.memory
let cost st = st.device.Device.config.Device.cost

let block_duration st =
  Cost_model.hash_time_raw (cost st) st.config.hash
    ~bytes:st.device.Device.config.Device.modeled_block_bytes

let lock_duration st n_ops =
  Timebase.ns (int_of_float (Float.round ((cost st).Cost_model.lock_op_ns *. float_of_int n_ops)))

(* Zero the volatile data regions before measuring (Section 2.3): makes it
   impossible for malware to hide there and spares the report a data copy. *)
let zero_data_blocks st =
  let mem = memory st in
  let zeroes = Bytes.make (Memory.block_size mem) '\000' in
  List.iter
    (fun block ->
      match Memory.set_block mem ~time:(Engine.now (engine st)) ~block zeroes with
      | Ok () -> ()
      | Error (Memory.Locked _) -> ())
    st.device.Device.config.Device.data_blocks

let apply_initial_locks st =
  let mem = memory st in
  match st.config.scheme.Scheme.locking with
  | Scheme.All_lock | Scheme.All_lock_ext _ | Scheme.Dec_lock ->
    Memory.lock_all mem
  | Scheme.Cpy_lock ->
    Memory.lock_all_cow mem
  | Scheme.No_lock | Scheme.Inc_lock | Scheme.Inc_lock_ext _ -> ()

let finish st ~t_end ~t_release =
  let mac =
    mac_over ~hash:st.config.hash ~key:st.device.Device.config.Device.key ~nonce:st.nonce
      ~counter:st.config.counter ~order:st.order ~digest:(Array.get st.digests)
  in
  let report =
    {
      Report.scheme_name = st.config.scheme.Scheme.name;
      hash = st.config.hash;
      nonce = st.nonce;
      order = st.order;
      mac;
      data_copy = List.rev st.data_copy;
      t_start = st.t_start;
      t_end;
      t_release;
      signature = st.config.signature;
      counter = st.config.counter;
    }
  in
  st.on_complete report

let release_locks st ~t_end k =
  let mem = memory st in
  let eng = engine st in
  match st.config.scheme.Scheme.locking with
  | Scheme.No_lock | Scheme.Dec_lock -> k t_end
  | Scheme.All_lock | Scheme.Inc_lock ->
    Memory.unlock_all ~time:(Engine.now eng) mem;
    k t_end
  | Scheme.Cpy_lock ->
    (* Merging the dirty shadows back costs real copy time, so the merged
       writes land strictly after te: the report stays consistent with the
       whole frozen window. *)
    let dirty = ref 0 in
    for block = 0 to Memory.block_count mem - 1 do
      if Memory.has_shadow mem block then incr dirty
    done;
    let merge_ns =
      (cost st).Cost_model.copy_ns_per_byte
      *. float_of_int (!dirty * Memory.block_size mem)
    in
    let duration = max 1 (int_of_float (Float.round merge_ns)) in
    ignore
      (Cpu.submit st.device.Device.cpu ~name:"mp-merge" ~priority:st.config.priority
         ~duration
         ~on_complete:(fun () ->
           Memory.unlock_all ~time:(Engine.now eng) mem;
           k (Engine.now eng))
         ())
  | Scheme.All_lock_ext delay | Scheme.Inc_lock_ext delay ->
    let t_release = Timebase.add t_end delay in
    ignore
      (Engine.schedule eng ~at:t_release (fun _ ->
           Memory.unlock_all ~time:(Engine.now eng) mem));
    k t_release

let sign_then_finish st ~t_end ~t_release =
  match st.config.signature with
  | None -> finish st ~t_end ~t_release
  | Some alg ->
    ignore
      (Cpu.submit st.device.Device.cpu ~name:"mp-sign" ~priority:st.config.priority
         ~duration:(Cost_model.sign_time (cost st) alg)
         ~on_complete:(fun () -> finish st ~t_end ~t_release)
         ())

(* Measure one block, on both paths: its digest is taken at this instant,
   which is the state the MAC in [finish] covers, and a data block's
   content is copied into the report. *)
let measure st block =
  st.digests.(block) <- block_digest st.device st.config.hash block;
  if Device.is_data_block st.device block && not st.config.scheme.Scheme.zero_data then
    st.data_copy <- (block, Memory.read_block (memory st) block) :: st.data_copy

(* Interruptible path: one CPU job per block; measurement state advances in
   the completion callback, where preempting jobs have already drained. *)
let rec measure_block st idx =
  let total = Array.length st.order in
  let block = st.order.(idx) in
  let mem = memory st in
  let eng = engine st in
  (match st.config.scheme.Scheme.locking with
  | Scheme.Inc_lock | Scheme.Inc_lock_ext _ -> Memory.lock mem block
  | Scheme.No_lock | Scheme.All_lock | Scheme.All_lock_ext _ | Scheme.Dec_lock
  | Scheme.Cpy_lock -> ());
  let duration =
    Timebase.add (block_duration st)
      (match st.config.scheme.Scheme.locking with
      | Scheme.Inc_lock | Scheme.Inc_lock_ext _ | Scheme.Dec_lock -> lock_duration st 1
      | Scheme.No_lock | Scheme.All_lock | Scheme.All_lock_ext _ | Scheme.Cpy_lock ->
        Timebase.zero)
  in
  ignore
    (Cpu.submit st.device.Device.cpu ~name:"mp" ~priority:st.config.priority ~duration
       ~on_complete:(fun () ->
         measure st block;
         (match st.config.scheme.Scheme.locking with
         | Scheme.Dec_lock -> Memory.unlock ~time:(Engine.now eng) mem block
         | Scheme.No_lock | Scheme.All_lock | Scheme.All_lock_ext _
         | Scheme.Inc_lock | Scheme.Inc_lock_ext _ | Scheme.Cpy_lock -> ());
         st.hooks.on_block_measured ~measured:(idx + 1) ~total;
         if idx + 1 < total then measure_block st (idx + 1)
         else begin
           let t_end = Engine.now eng in
           release_locks st ~t_end (fun t_release ->
               sign_then_finish st ~t_end ~t_release)
         end)
       ())

(* Atomic path (SMART): a single uninterruptible CPU job covering setup,
   every block, and the signature. Nothing else can run, so digesting the
   whole memory at the end equals its state throughout the window. *)
let run_atomic st =
  let total = Array.length st.order in
  let eng = engine st in
  let duration =
    let hashing =
      Timebase.add
        (Cost_model.hash_time (cost st) st.config.hash ~bytes:0)
        (block_duration st * total)
    in
    match st.config.signature with
    | None -> hashing
    | Some alg -> Timebase.add hashing (Cost_model.sign_time (cost st) alg)
  in
  ignore
    (Cpu.submit st.device.Device.cpu ~atomic:true ~name:"mp" ~priority:st.config.priority
       ~duration
       ~on_complete:(fun () ->
         Array.iter (measure st) st.order;
         let t_end = Engine.now eng in
         release_locks st ~t_end (fun t_release -> finish st ~t_end ~t_release))
       ())

let run device config ~nonce ?(hooks = null_hooks) ~on_complete () =
  let eng = device.Device.engine in
  let n = Memory.block_count device.Device.memory in
  let order =
    match config.scheme.Scheme.order with
    | Scheme.Sequential -> Array.init n (fun i -> i)
    | Scheme.Shuffled -> Prng.permutation (Engine.prng eng) n
  in
  let st =
    {
      device;
      config;
      nonce;
      hooks;
      order;
      digests = Array.make n Bytes.empty;
      data_copy = [];
      t_start = Engine.now eng;
      on_complete;
    }
  in
  if config.scheme.Scheme.zero_data then zero_data_blocks st;
  apply_initial_locks st;
  if config.scheme.Scheme.atomic then run_atomic st
  else begin
    hooks.on_start ();
    (* charge the fixed setup cost as a first small job *)
    ignore
      (Cpu.submit device.Device.cpu ~name:"mp" ~priority:config.priority
         ~duration:(Cost_model.hash_time (cost st) config.hash ~bytes:0)
         ~on_complete:(fun () -> measure_block st 0)
         ())
  end
