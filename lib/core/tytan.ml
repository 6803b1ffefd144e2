open Ra_sim
open Ra_device

type process = { name : string; first_block : int; block_span : int }

type config = {
  processes : process list;
  hash : Ra_crypto.Algo.hash;
  priority : int;
}

let partition device ~names =
  let blocks = Memory.block_count device.Device.memory in
  let count = List.length names in
  if count = 0 then invalid_arg "Tytan.partition: no names";
  let base = blocks / count and extra = blocks mod count in
  let _, processes =
    List.fold_left
      (fun (next, acc) (i, name) ->
        let span = base + (if i < extra then 1 else 0) in
        (next + span, { name; first_block = next; block_span = span } :: acc))
      (0, [])
      (List.mapi (fun i n -> (i, n)) names)
  in
  List.rev processes

type hooks = {
  on_region_start : measured:process -> unit;
  on_region_done : measured:process -> unit;
}

let null_hooks =
  { on_region_start = (fun ~measured:_ -> ()); on_region_done = (fun ~measured:_ -> ()) }

let check_partition config blocks =
  let covered = Array.make blocks false in
  List.iter
    (fun p ->
      if p.first_block < 0 || p.block_span < 1 || p.first_block + p.block_span > blocks
      then invalid_arg "Tytan.run: process region out of range";
      for b = p.first_block to p.first_block + p.block_span - 1 do
        if covered.(b) then invalid_arg "Tytan.run: overlapping process regions";
        covered.(b) <- true
      done)
    config.processes;
  if not (Array.for_all (fun c -> c) covered) then
    invalid_arg "Tytan.run: processes do not cover memory"

let region_nonce ~nonce process = Bytes.cat nonce (Bytes.of_string process.name)

let run device config ~nonce ?(hooks = null_hooks) ~on_complete () =
  let mem = device.Device.memory in
  let eng = device.Device.engine in
  let cost = device.Device.config.Device.cost in
  check_partition config (Memory.block_count mem);
  let block_duration =
    Cost_model.hash_time_raw cost config.hash
      ~bytes:device.Device.config.Device.modeled_block_bytes
  in
  (* Regions partition memory, so one array holds every region's digests,
     each stored as its block is measured. *)
  let digests = Array.make (Memory.block_count mem) Bytes.empty in
  (* Measure one region: an interruptible chain of per-block CPU jobs. *)
  let measure_region process k =
    hooks.on_region_start ~measured:process;
    let t_start = Engine.now eng in
    let nonce = region_nonce ~nonce process in
    let order =
      Array.init process.block_span (fun i -> process.first_block + i)
    in
    let rec step idx =
      if idx >= Array.length order then begin
        let report =
          {
            Report.scheme_name = "TyTAN:" ^ process.name;
            hash = config.hash;
            nonce;
            order;
            mac =
              Mp.mac_over ~hash:config.hash ~key:device.Device.config.Device.key ~nonce
                ~counter:None ~order ~digest:(Array.get digests);
            data_copy = [];
            t_start;
            t_end = Engine.now eng;
            t_release = Engine.now eng;
            signature = None;
            counter = None;
          }
        in
        hooks.on_region_done ~measured:process;
        k report
      end
      else
        ignore
          (Cpu.submit device.Device.cpu ~name:"tytan-mp" ~priority:config.priority
             ~duration:block_duration
             ~on_complete:(fun () ->
               let block = order.(idx) in
               digests.(block) <- Mp.block_digest device config.hash block;
               step (idx + 1))
             ())
    in
    step 0
  in
  let rec regions pending acc =
    match pending with
    | [] -> on_complete (List.rev acc)
    | process :: rest ->
      measure_region process (fun report -> regions rest ((process, report) :: acc))
  in
  regions config.processes []

let verify_all verifier results =
  List.map
    (fun (process, report) ->
      let region =
        List.init process.block_span (fun i -> process.first_block + i)
      in
      (process.name, Verifier.verify_region verifier ~region report))
    results
