open Ra_sim
open Ra_device

type config = {
  seed : int;
  nodes : int;
  fanout : int;
  node_bytes : int;
  modeled_node_bytes : int;
  link_delay : Timebase.t;
  loss : float;
  cost : Cost_model.t;
}

let default_config =
  {
    seed = 1;
    nodes = 31;
    fanout = 2;
    node_bytes = 4096;
    modeled_node_bytes = 1024 * 1024;
    link_delay = Timebase.ms 5;
    loss = 0.;
    cost = Cost_model.odroid_xu4;
  }

type result = {
  healthy : int;
  tampered : int;
  unresponsive : int;
  duration : Timebase.t;
  messages : int;
}

type aggregate = { agg_healthy : int; agg_tampered : int; agg_unresponsive : int }

let children config id =
  let rec collect k acc =
    if k > config.fanout then List.rev acc
    else begin
      let child = (id * config.fanout) + k in
      if child < config.nodes then collect (k + 1) (child :: acc)
      else List.rev acc
    end
  in
  collect 1 []

let rec subtree_size config id =
  1 + List.fold_left (fun acc c -> acc + subtree_size config c) 0 (children config id)

let depth config =
  let rec go id = 1 + List.fold_left (fun acc c -> max acc (go c)) 0 (children config id) in
  go 0

let node_key config id =
  Bytes.of_string (Printf.sprintf "swarm-key-%08x-%04d" config.seed id)

let node_firmware config ~infected id =
  let image =
    Prng.bytes (Prng.create ~seed:(config.seed lxor (id * 7919) lxor 0x53574D)) config.node_bytes
  in
  if List.mem id infected then Bytes.set image 0 '\xEE';
  image

(* Per-node protocol state during a round. *)
type node_state = {
  id : int;
  kids : int list;
  mutable own_digest : Bytes.t option;
  mutable child_aggregates : (int * aggregate) list;
  mutable sent_up : bool;
}

let run config ~infected =
  if config.nodes < 1 then invalid_arg "Swarm.run: empty swarm";
  let eng = Engine.create ~seed:config.seed () in
  let rng = Prng.split (Engine.prng eng) in
  let messages = ref 0 in
  let final = ref None in
  let states =
    Array.init config.nodes (fun id ->
        { id; kids = children config id; own_digest = None; child_aggregates = []; sent_up = false })
  in
  let nonce = Prng.bytes (Engine.prng eng) 16 in
  (* Hash-then-MAC through a per-round content-addressed store: the unkeyed
     firmware digest is shared between a node's own measurement and the
     root's expected value, so each distinct firmware is hashed once per
     round instead of once per side. *)
  let store = Ra_cache.Store.create () in
  (* The clean expected digests for the whole swarm are resolved up front,
     each distinct firmware hashed once; an infected node's own (tampered)
     measurement probes the store when it is taken. *)
  let clean_digests =
    Array.init config.nodes (fun id ->
        snd
          (Ra_cache.Store.digest store Ra_crypto.Algo.SHA_256
             (node_firmware config ~infected:[] id)))
  in
  let firmware_digest ~infected id =
    if List.mem id infected then
      snd
        (Ra_cache.Store.digest store Ra_crypto.Algo.SHA_256
           (node_firmware config ~infected id))
    else clean_digests.(id)
  in
  let node_mac ~infected id =
    Ra_crypto.Mac_stream.mac Ra_crypto.Algo.SHA_256 ~key:(node_key config id)
      (Bytes.concat Bytes.empty [ nonce; firmware_digest ~infected id ])
  in
  let expected_digest id = node_mac ~infected:[] id in
  let measure_duration =
    Cost_model.hash_time config.cost Ra_crypto.Algo.SHA_256
      ~bytes:config.modeled_node_bytes
  in
  (* A transmission: counted, delayed, possibly lost. *)
  let transmit callback =
    incr messages;
    if not (Prng.bernoulli rng ~p:config.loss) then
      ignore (Engine.schedule_after eng ~delay:config.link_delay (fun _ -> callback ()))
  in
  (* Each node waits for its children until a depth-scaled timeout, then
     reports whatever it has; silent subtrees count as unresponsive. *)
  let subtree_timeout id =
    let levels = depth { config with nodes = subtree_size config id } in
    Timebase.add measure_duration
      (Timebase.add (config.link_delay * 4 * levels) (measure_duration * levels))
  in
  let rec send_up state =
    if not state.sent_up then begin
      match state.own_digest with
      | None -> ()
      | Some own ->
        state.sent_up <- true;
        let own_healthy =
          Ra_crypto.Bytesutil.constant_time_equal own (expected_digest state.id)
        in
        let base =
          {
            agg_healthy = (if own_healthy then 1 else 0);
            agg_tampered = (if own_healthy then 0 else 1);
            agg_unresponsive = 0;
          }
        in
        let total =
          List.fold_left
            (fun acc child ->
              match List.assoc_opt child state.child_aggregates with
              | Some a ->
                {
                  agg_healthy = acc.agg_healthy + a.agg_healthy;
                  agg_tampered = acc.agg_tampered + a.agg_tampered;
                  agg_unresponsive = acc.agg_unresponsive + a.agg_unresponsive;
                }
              | None ->
                {
                  acc with
                  agg_unresponsive = acc.agg_unresponsive + subtree_size config child;
                })
            base state.kids
        in
        if state.id = 0 then
          transmit (fun () -> final := Some (total, Engine.now eng))
        else begin
          let parent = (state.id - 1) / config.fanout in
          transmit (fun () ->
              let pstate = states.(parent) in
              if not pstate.sent_up then begin
                pstate.child_aggregates <-
                  (state.id, total) :: pstate.child_aggregates;
                if
                  List.length pstate.child_aggregates = List.length pstate.kids
                  && pstate.own_digest <> None
                then send_up pstate
              end)
        end
    end
  in
  let rec receive_challenge id =
    let state = states.(id) in
    List.iter (fun child -> transmit (fun () -> receive_challenge child)) state.kids;
    (* Measure own firmware: real digest over real bytes, model-time cost. *)
    ignore
      (Engine.schedule_after eng ~delay:measure_duration (fun _ ->
           state.own_digest <- Some (node_mac ~infected id);
           if List.length state.child_aggregates = List.length state.kids then
             send_up state));
    ignore
      (Engine.schedule_after eng ~delay:(subtree_timeout id) (fun _ -> send_up state))
  in
  transmit (fun () -> receive_challenge 0);
  Engine.run eng;
  match !final with
  | None ->
    {
      healthy = 0;
      tampered = 0;
      unresponsive = config.nodes;
      duration = Engine.now eng;
      messages = !messages;
    }
  | Some (agg, finished) ->
    {
      healthy = agg.agg_healthy;
      tampered = agg.agg_tampered;
      unresponsive = agg.agg_unresponsive;
      duration = finished;
      messages = !messages;
    }
