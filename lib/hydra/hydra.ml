open Ra_sim
open Ra_device

let mp_pid = "hydra-mp"

type app_region = {
  pid : Capability.pid;
  first_block : int;
  block_span : int;
  priority : int;
}

type t = {
  device : Device.t;
  caps : Capability.t;
  apps : app_region list;
  mp_priority : int;
  mutable key_holders : Capability.pid list;
  mutable denials : (Capability.pid * string) list; (* newest first *)
}

let build device ~apps =
  let blocks = Memory.block_count device.Device.memory in
  let owner = Array.make blocks None in
  List.iter
    (fun app ->
      if app.first_block < 0 || app.block_span < 1
         || app.first_block + app.block_span > blocks
      then invalid_arg "Hydra.build: app region out of range";
      for b = app.first_block to app.first_block + app.block_span - 1 do
        match owner.(b) with
        | Some _ -> invalid_arg "Hydra.build: overlapping app regions"
        | None -> owner.(b) <- Some app.pid
      done)
    apps;
  let caps = Capability.create () in
  List.iter
    (fun app ->
      Capability.grant caps app.pid
        {
          Capability.first_block = app.first_block;
          block_span = app.block_span;
          rights = [ Capability.Read; Capability.Write; Capability.Execute ];
        })
    apps;
  (* the attestation process reads everything but writes nothing *)
  Capability.grant caps mp_pid
    { Capability.first_block = 0; block_span = blocks; rights = [ Capability.Read ] };
  let mp_priority =
    1 + List.fold_left (fun acc app -> max acc app.priority) 0 apps
  in
  { device; caps; apps; mp_priority; key_holders = [ mp_pid ]; denials = [] }

let mp_priority t = t.mp_priority

let deny t pid reason =
  t.denials <- (pid, reason) :: t.denials;
  Error reason

let read_key t pid =
  if List.mem pid t.key_holders then Ok t.device.Device.config.Device.key
  else deny t pid (Printf.sprintf "%s: no capability for the attestation key" pid)

let guarded_write t pid ~block ~offset payload =
  if not (Capability.allows t.caps pid Capability.Write ~block) then
    deny t pid (Printf.sprintf "%s: no write capability for block %d" pid block)
  else begin
    match
      Memory.write t.device.Device.memory
        ~time:(Engine.now t.device.Device.engine)
        ~block ~offset payload
    with
    | Ok () -> Ok ()
    | Error (Memory.Locked b) -> Error (Printf.sprintf "block %d is locked" b)
  end

let guarded_read t pid ~block =
  if Capability.allows t.caps pid Capability.Read ~block then
    Ok (Memory.read_block t.device.Device.memory block)
  else deny t pid (Printf.sprintf "%s: no read capability for block %d" pid block)

let attest t ~nonce ?(hash = Ra_crypto.Algo.SHA_256) ~on_complete () =
  Ra_core.Mp.run t.device
    {
      Ra_core.Mp.scheme = Ra_core.Scheme.no_lock;
      hash;
      signature = None;
      priority = t.mp_priority;
      counter = None;
    }
    ~nonce ~on_complete ()

let denials t = List.rev t.denials

let app_activity t pid ~period ~execution =
  let app =
    match List.find_opt (fun a -> a.pid = pid) t.apps with
    | Some a -> a
    | None -> raise Not_found
  in
  App.start t.device.Device.engine t.device.Device.cpu t.device.Device.memory
    {
      App.name = pid;
      period;
      execution;
      priority = app.priority;
      deadline = Some period;
      data_blocks = [ app.first_block ];
      write_bytes = 16;
      first_activation = Timebase.ms 100;
    }
