(* Perf-regression toolkit: measure throughput/wall-time metrics, write them
   as BENCH_*.json, and diff a run against a committed baseline. JSON is
   hand-rolled (emitter and a small recursive-descent parser) because the
   build pulls in no JSON dependency. *)

type direction = Higher_is_better | Lower_is_better

(* [exact] marks deterministic metrics (event/byte/hit counts): they must
   reproduce bit-for-bit on any host and any job count, so the comparison
   gate checks equality instead of a wall-time tolerance. *)
type metric = {
  name : string;
  value : float;
  unit_ : string;
  direction : direction;
  exact : bool;
}

type suite = { suite : string; metrics : metric list }

(* --- measurement -------------------------------------------------------- *)

(* Repeat [f] until [budget] seconds elapse (at least once); returns
   (iterations, elapsed_seconds). *)
let timed_loop ~budget f =
  let t0 = Unix.gettimeofday () in
  let iters = ref 0 in
  let elapsed = ref 0. in
  while !elapsed < budget do
    f ();
    incr iters;
    elapsed := Unix.gettimeofday () -. t0
  done;
  (!iters, !elapsed)

let wall f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let throughput_metric ~name ~bytes ~budget f =
  let iters, elapsed = timed_loop ~budget f in
  {
    name;
    value = float_of_int (iters * bytes) /. elapsed /. 1e6;
    unit_ = "MB/s";
    direction = Higher_is_better;
    exact = false;
  }

let seconds_metric ~name value =
  { name; value; unit_ = "s"; direction = Lower_is_better; exact = false }

let ratio_metric ~name value =
  { name; value; unit_ = "x"; direction = Higher_is_better; exact = false }

let count_metric ~name value =
  {
    name;
    value = float_of_int value;
    unit_ = "count";
    direction = Higher_is_better;
    exact = true;
  }

(* quick mode trims buffer sizes and timing budgets so `ratool bench` and
   the CI smoke job finish in seconds; the shapes measured are the same *)
let crypto_metrics ?(quick = false) () =
  let budget = if quick then 0.15 else 1.0 in
  let size = (if quick then 1 else 4) * 1024 * 1024 in
  let buffer = Ra_sim.Prng.bytes (Ra_sim.Prng.create ~seed:1) size in
  let hash name digest =
    throughput_metric ~name ~bytes:size ~budget (fun () -> ignore (digest buffer))
  in
  [
    hash "sha256_mb_s" Ra_crypto.Sha256.digest;
    hash "sha512_mb_s" Ra_crypto.Sha512.digest;
    hash "blake2b_mb_s" Ra_crypto.Blake2b.digest;
    hash "blake2s_mb_s" Ra_crypto.Blake2s.digest;
    (let key = Bytes.of_string "bench-key" in
     throughput_metric ~name:"hmac_sha256_mb_s" ~bytes:size ~budget (fun () ->
         ignore (Ra_crypto.Hmac.Sha256.mac ~key buffer)));
    (* The same input bytes re-cut as 1 KiB messages, the shape one fleet
       measurement round produces: per-message padding and finalize cost
       next to the one-big-message sha256_mb_s. *)
    (let batch = Array.init (size / 1024) (fun i -> Bytes.sub buffer (i * 1024) 1024) in
     throughput_metric ~name:"sha256_lanes1_mb_s" ~bytes:size ~budget (fun () ->
         ignore (Array.map Ra_crypto.Sha256.digest batch)));
  ]

let engine_events_metric ~budget =
  let events_per_iter = 10_000 in
  let iters, elapsed =
    timed_loop ~budget (fun () ->
        let eng = Ra_sim.Engine.create () in
        for i = 1 to events_per_iter do
          ignore (Ra_sim.Engine.schedule eng ~at:i (fun _ -> ()))
        done;
        Ra_sim.Engine.run eng)
  in
  {
    name = "engine_events_s";
    value = float_of_int (iters * events_per_iter) /. elapsed;
    unit_ = "events/s";
    direction = Higher_is_better;
    exact = false;
  }

(* 1000-device roll call on the fleet's shared firmware release, one device
   infected. Deliberately NOT shrunk in quick mode: the count metrics are
   exact and must reproduce identically in smoke runs, full runs, and on
   any host or job count. *)
let fleet_metrics ?jobs () =
  let open Ra_core in
  let fleet =
    Fleet.create ~master_secret:(Bytes.of_string "bench fleet master secret") ()
  in
  let config =
    {
      Ra_device.Device.default_config with
      Ra_device.Device.blocks = 16;
      block_size = 256;
      modeled_block_bytes = 1024 * 1024;
    }
  in
  let devices = 1000 in
  for i = 0 to devices - 1 do
    ignore (Fleet.provision fleet (Printf.sprintf "dev-%05d" i) ~config ())
  done;
  let infected = Fleet.device fleet "dev-00500" in
  let rng = Ra_sim.Prng.split (Ra_sim.Engine.prng infected.Ra_device.Device.engine) in
  ignore
    (Ra_malware.Malware.install infected ~rng ~block:3 ~priority:8
       Ra_malware.Malware.Static);
  let roll, roll_s =
    wall (fun () -> Fleet.sharded_roll_call fleet ?jobs Mp.default_config)
  in
  (* Second roll call over the same (unchanged) fleet: every device's
     per-block memo is warm, so [cache_hits] — pinned at zero on the cold
     pass by construction — becomes a real, gate-able count: any memo
     regression drops it and the exact comparison fails. *)
  let warm, warm_s =
    wall (fun () -> Fleet.sharded_roll_call fleet ?jobs Mp.default_config)
  in
  [
    seconds_metric ~name:"fleet_roll_call_s" roll_s;
    seconds_metric ~name:"fleet_warm_roll_call_s" warm_s;
    count_metric ~name:"fleet_clean" (List.length roll.Fleet.clean);
    count_metric ~name:"fleet_tampered" (List.length roll.Fleet.tampered);
    count_metric ~name:"fleet_digest_requests" roll.Fleet.digest_requests;
    count_metric ~name:"fleet_cache_hits" warm.Fleet.cache_hits;
    count_metric ~name:"fleet_store_hits" roll.Fleet.store_hits;
    count_metric ~name:"fleet_blocks_hashed" roll.Fleet.hashed;
    count_metric ~name:"fleet_distinct_blocks" roll.Fleet.distinct_blocks;
    count_metric ~name:"fleet_warm_tampered" (List.length warm.Fleet.tampered);
    count_metric ~name:"fleet_store_stripes"
      (Ra_cache.Store.stripes (Fleet.store fleet));
  ]

(* Sharded roll call over a multi-segment virtual roster: 2.5 aggregation
   segments, so the hierarchy (segment roots -> shard roots -> fleet root)
   is genuinely exercised. [fleet_root_checks] counts re-runs at other
   (shards, jobs) points whose fleet root and counters matched the
   reference — the hierarchical-digest invariance, gated as an exact
   metric. NOT shrunk in quick mode. *)
let fleet_sharded_metrics ?jobs () =
  let open Ra_core in
  let devices = (2 * Fleet.segment_size) + Fleet.segment_size / 2 in
  let build () =
    let fleet =
      Fleet.create ~master_secret:(Bytes.of_string "bench sharded fleet secret") ()
    in
    let config =
      {
        Ra_device.Device.default_config with
        Ra_device.Device.blocks = 16;
        block_size = 256;
        modeled_block_bytes = 1024 * 1024;
      }
    in
    for i = 0 to devices - 1 do
      let tamper =
        if i mod 500 = 250 then
          Some
            (fun d ->
              let rng =
                Ra_sim.Prng.split (Ra_sim.Engine.prng d.Ra_device.Device.engine)
              in
              ignore
                (Ra_malware.Malware.install d ~rng ~block:5 ~priority:8
                   Ra_malware.Malware.Static))
        else None
      in
      Fleet.provision_virtual fleet (Printf.sprintf "shard-dev-%05d" i) ~config
        ?tamper ()
    done;
    fleet
  in
  (* everything but the shard grouping, fleet root included *)
  let unsharded (r : Fleet.roll_call) = { r with Fleet.shards = 0; shard_roots = [||] } in
  let reference, sharded_s =
    wall (fun () -> Fleet.sharded_roll_call (build ()) ?jobs ~shards:2 Mp.default_config)
  in
  let matches shards jobs =
    unsharded (Fleet.sharded_roll_call (build ()) ~jobs ~shards Mp.default_config)
    = unsharded reference
  in
  let checks = [ matches 1 1; matches 3 2 ] in
  [
    seconds_metric ~name:"fleet_sharded_roll_call_s" sharded_s;
    count_metric ~name:"fleet_shards" reference.Fleet.shards;
    count_metric ~name:"fleet_sharded_tampered"
      (List.length reference.Fleet.tampered);
    count_metric ~name:"fleet_root_checks"
      (List.length (List.filter Fun.id checks));
  ]

(* Million-device roll call, full mode only: wall-clock observations, never
   exact — quick smoke runs must stay cheap, and compare.exe's exact gate
   would otherwise flag them Missing_in_current. The counters at this scale
   are instead guarded by the CI 100k sharded gate (ratool fleet
   --check-jobs) and the sharded-vs-flat property tests. *)
let fleet_million_metrics ?jobs () =
  let devices = 1_000_000 in
  let r = Fleet_roll.run ~devices ~seed:7 ~shards:8 ?jobs () in
  [
    {
      name = "fleet_1m_roll_call_s";
      value = r.Fleet_roll.roll_s;
      unit_ = "s";
      direction = Lower_is_better;
      exact = false;
    };
    {
      name = "fleet_1m_devices_per_s";
      value = float_of_int devices /. r.Fleet_roll.roll_s;
      unit_ = "devices/s";
      direction = Higher_is_better;
      exact = false;
    };
    {
      name = "fleet_1m_provision_s";
      value = r.Fleet_roll.provision_s;
      unit_ = "s";
      direction = Lower_is_better;
      exact = false;
    };
  ]

(* Fleet-chaos convergence under the supervisor, 120 devices (every fault
   kind, 12x). Like fleet_metrics, NOT shrunk in quick mode: every count —
   rounds to convergence, terminal states, detections, remediations,
   attestations, timeouts — is exact and must be bit-identical on any
   host, mode, or job count. *)
let supervisor_metrics ?jobs () =
  let open Ra_supervisor in
  let r, chaos_s = wall (fun () -> Fleet_chaos.run ~devices:120 ~seed:7 ?jobs ()) in
  let rep = r.Fleet_chaos.report in
  [
    seconds_metric ~name:"supervisor_fleet_chaos_s" chaos_s;
    count_metric ~name:"supervisor_rounds" rep.Supervisor.rounds;
    count_metric ~name:"supervisor_converged" (if rep.Supervisor.converged then 1 else 0);
    count_metric ~name:"supervisor_violations" (List.length r.Fleet_chaos.violations);
    count_metric ~name:"supervisor_healthy" (List.length rep.Supervisor.healthy);
    count_metric ~name:"supervisor_quarantined"
      (List.length rep.Supervisor.quarantined);
    count_metric ~name:"supervisor_detections" (List.length rep.Supervisor.detections);
    count_metric ~name:"supervisor_remediated" (List.length rep.Supervisor.remediated);
    count_metric ~name:"supervisor_attestations" rep.Supervisor.attestations;
    count_metric ~name:"supervisor_timeouts" rep.Supervisor.timeouts;
    count_metric ~name:"supervisor_probes_blocked" rep.Supervisor.probes_blocked;
    count_metric ~name:"supervisor_remediation_pushes"
      rep.Supervisor.remediation_pushes;
  ]

(* Repeated self-measurement with a sparse write schedule (5 single-block
   writes across 10 rounds of 64 blocks — under 1%): the digest cache
   should collapse host time to O(changed blocks) while virtual-time
   behaviour stays identical. Like the fleet metrics, the hit/miss counts
   are exact and identical in quick and full mode. *)
let erasmus_metrics () =
  let open Ra_core in
  let run ~digest_cache =
    let device =
      Ra_device.Device.create
        {
          Ra_device.Device.default_config with
          Ra_device.Device.seed = 11;
          blocks = 64;
          block_size = 8192;
          modeled_block_bytes = 8192;
          digest_cache;
        }
    in
    let eng = device.Ra_device.Device.engine in
    let mem = device.Ra_device.Device.memory in
    (* one single-block write between selected rounds (period 10 s) *)
    List.iter
      (fun sec ->
        ignore
          (Ra_sim.Engine.schedule eng ~at:(Ra_sim.Timebase.s sec) (fun _ ->
               let payload = Bytes.make 8192 (Char.chr (sec mod 256)) in
               ignore
                 (Ra_device.Memory.set_block mem ~time:(Ra_sim.Engine.now eng)
                    ~block:(sec mod 64) payload))))
      [ 5; 25; 45; 65; 85 ];
    let era = Erasmus.start device Erasmus.default_config in
    let (), elapsed =
      wall (fun () -> Ra_device.Device.run ~until:(Ra_sim.Timebase.s 95) device)
    in
    Erasmus.stop era;
    (elapsed, device.Ra_device.Device.cache)
  in
  let uncached_s, _ = run ~digest_cache:false in
  let cached_s, cache = run ~digest_cache:true in
  let stats =
    match cache with
    | Some c -> Ra_cache.stats c
    | None -> { Ra_cache.hits = 0; store_hits = 0; misses = 0 }
  in
  [
    seconds_metric ~name:"erasmus_10r_uncached_s" uncached_s;
    seconds_metric ~name:"erasmus_10r_cached_s" cached_s;
    ratio_metric ~name:"erasmus_cached_speedup_x" (uncached_s /. cached_s);
    count_metric ~name:"erasmus_cache_hits" stats.Ra_cache.hits;
    count_metric ~name:"erasmus_cache_misses" stats.Ra_cache.misses;
  ]

(* Journal throughput over the in-memory disk: the record-framing and
   CRC cost without the host's fsync noise. The torn half-record on the
   tail makes every run exercise the truncating scan, and the exact
   counts prove it recovered all 20k records and nothing else. *)
let journal_metrics () =
  let open Ra_journal in
  let events = 20_000 in
  let ev i =
    {
      Event.tag = "edge";
      fields =
        [
          ("dev", Event.S (Printf.sprintf "dev-%05d" (i mod 1000)));
          ("round", Event.I (i / 1000));
          ("from", Event.I (i mod 7));
          ("cause", Event.I (i mod 13));
          ("to", Event.I ((i + 1) mod 7));
        ];
    }
  in
  let store = Disk.Mem.create () in
  let disk = Disk.Mem.disk store in
  let j = Journal.create disk in
  let (), append_s =
    wall (fun () ->
        for i = 0 to events - 1 do
          Journal.append j (ev i);
          if i mod 128 = 127 then Journal.commit j
        done;
        Journal.commit j)
  in
  disk.Disk.append Journal.wal_file (Bytes.of_string "RJ\x00\x00\x00\x2a\x00");
  let recovery, replay_s =
    wall (fun () ->
        match Journal.recover disk with
        | Error e -> failwith ("journal_metrics: " ^ e)
        | Ok r ->
          let v = Journal.verifier r.Journal.events in
          Array.iter (Journal.append v) r.Journal.events;
          (match Journal.verified v with
          | Ok () -> ()
          | Error e -> failwith ("journal_metrics: " ^ e));
          r)
  in
  [
    {
      name = "journal_append_records_s";
      value = float_of_int events /. append_s;
      unit_ = "records/s";
      direction = Higher_is_better;
      exact = false;
    };
    {
      name = "replay_events_s";
      value = float_of_int events /. replay_s;
      unit_ = "events/s";
      direction = Higher_is_better;
      exact = false;
    };
    count_metric ~name:"journal_recovered_events"
      (Array.length recovery.Journal.events);
    count_metric ~name:"journal_torn_tail_truncated"
      (match recovery.Journal.damage with Some _ -> 1 | None -> 0);
  ]

(* Attestation control plane over the simulated network: one seeded
   campaign under the default stream-fault mix with a kill -9 mid-ingest,
   and one fault-free run for the ingest rate. The counters are exact —
   a campaign outcome is a pure function of the seed (property-tested in
   test_server.ml) — so the comparison gate checks them for equality;
   only the reports/s wall metric carries host noise. *)
let server_metrics ?jobs () =
  let module N = Ra_server.Netsim in
  let chaos_config =
    {
      N.default with
      N.devices = 48;
      reports_per_device = 4;
      capacity = 12;
      seed = 7;
      crash_at = Some 60;
    }
  in
  let run config =
    match N.run ?jobs config with
    | Ok o -> o
    | Error e -> failwith ("server_metrics: " ^ e)
  in
  let chaos = run chaos_config in
  let clean_config =
    { chaos_config with N.faults = Ra_faults.Stream_faults.ideal; crash_at = None }
  in
  let clean, clean_s = wall (fun () -> run clean_config) in
  [
    count_metric ~name:"server_accepted" chaos.N.counters.Ra_server.Wire.accepted;
    count_metric ~name:"server_shed" chaos.N.counters.Ra_server.Wire.shed;
    count_metric ~name:"server_recovered"
      chaos.N.counters.Ra_server.Wire.recovered;
    {
      name = "server_reports_s";
      value = float_of_int clean.N.acked /. clean_s;
      unit_ = "reports/s";
      direction = Higher_is_better;
      exact = false;
    };
  ]

let sim_metrics ?(quick = false) ?jobs () =
  let budget = if quick then 0.15 else 1.0 in
  let table1_trials = if quick then 2 else 10 in
  let chaos_trials = if quick then 7 else 21 in
  let game_trials = if quick then 50_000 else 500_000 in
  let _, table1_s =
    wall (fun () -> Table1.compute ?jobs ~trials:table1_trials ~seed:5 ())
  in
  let _, chaos_s = wall (fun () -> Chaos.run ?jobs ~trials:chaos_trials ()) in
  let _, game_s =
    wall (fun () ->
        Smarm_sweep.game_escape_rate ~blocks:64 ~rounds:3 ~trials:game_trials
          ~seed:7)
  in
  let _, detection_s =
    wall (fun () ->
        Runs.detection_rate ?jobs Runs.default_setup ~scheme:Ra_core.Scheme.smart
          ~adversary:
            (Runs.Malicious { behavior = Ra_malware.Malware.Static; block = 40 })
          ~trials:(if quick then 6 else 24))
  in
  [
    engine_events_metric ~budget;
    seconds_metric ~name:"table1_wall_s" table1_s;
    seconds_metric ~name:"chaos_wall_s" chaos_s;
    seconds_metric ~name:"smarm_game_wall_s" game_s;
    seconds_metric ~name:"detection_rate_wall_s" detection_s;
  ]
  @ fleet_metrics ?jobs ()
  @ fleet_sharded_metrics ?jobs ()
  @ (if quick then [] else fleet_million_metrics ?jobs ())
  @ supervisor_metrics ?jobs ()
  @ erasmus_metrics ()
  @ journal_metrics ()
  @ server_metrics ?jobs ()

(* --- JSON emit ----------------------------------------------------------- *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json { suite; metrics } =
  let metric m =
    Printf.sprintf
      "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\", \
       \"higher_is_better\": %b, \"exact\": %b}"
      (escape_string m.name) m.value (escape_string m.unit_)
      (m.direction = Higher_is_better)
      m.exact
  in
  Printf.sprintf
    "{\n  \"schema\": \"ra-bench/1\",\n  \"suite\": \"%s\",\n  \"metrics\": [\n%s\n  ]\n}\n"
    (escape_string suite)
    (String.concat ",\n" (List.map metric metrics))

let write_file path suite =
  let oc = open_out path in
  output_string oc (to_json suite);
  close_out oc

(* --- JSON parse ---------------------------------------------------------- *)

type json =
  | J_null
  | J_bool of bool
  | J_number of float
  | J_string of string
  | J_array of json list
  | J_object of (string * json) list

exception Parse_error of string

let parse_json text =
  let pos = ref 0 in
  let len = String.length text in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= len && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("bad literal, expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= len then fail "unterminated string";
      let c = text.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= len then fail "unterminated escape";
        let e = text.[!pos] in
        advance ();
        match e with
        | '"' | '\\' | '/' ->
          Buffer.add_char buf e;
          loop ()
        | 'n' ->
          Buffer.add_char buf '\n';
          loop ()
        | 't' ->
          Buffer.add_char buf '\t';
          loop ()
        | 'r' ->
          Buffer.add_char buf '\r';
          loop ()
        | 'b' ->
          Buffer.add_char buf '\b';
          loop ()
        | 'u' ->
          if !pos + 4 > len then fail "short unicode escape";
          let code = int_of_string ("0x" ^ String.sub text !pos 4) in
          pos := !pos + 4;
          (* ASCII-range escapes only: enough for our own emitter's output *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_char buf '?';
          loop ()
        | _ -> fail "unknown escape")
      | c ->
        Buffer.add_char buf c;
        loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < len && is_num_char text.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_string (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        J_object []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, value) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, value) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        J_object (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        J_array []
      end
      else begin
        let rec items acc =
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (value :: acc)
          | Some ']' ->
            advance ();
            List.rev (value :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        J_array (items [])
      end
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> J_number (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let suite_of_json json =
  let assoc key fields =
    match List.assoc_opt key fields with
    | Some v -> v
    | None -> raise (Parse_error ("missing field " ^ key))
  in
  match json with
  | J_object fields ->
    let suite =
      match assoc "suite" fields with
      | J_string s -> s
      | _ -> raise (Parse_error "suite must be a string")
    in
    let metrics =
      match assoc "metrics" fields with
      | J_array items ->
        List.map
          (function
            | J_object m ->
              let name =
                match assoc "name" m with
                | J_string s -> s
                | _ -> raise (Parse_error "metric name must be a string")
              in
              let value =
                match assoc "value" m with
                | J_number f -> f
                | _ -> raise (Parse_error "metric value must be a number")
              in
              let unit_ =
                match assoc "unit" m with
                | J_string s -> s
                | _ -> raise (Parse_error "metric unit must be a string")
              in
              let direction =
                match assoc "higher_is_better" m with
                | J_bool true -> Higher_is_better
                | J_bool false -> Lower_is_better
                | _ -> raise (Parse_error "higher_is_better must be a bool")
              in
              (* optional for compatibility with pre-exact baselines *)
              let exact =
                match List.assoc_opt "exact" m with
                | Some (J_bool b) -> b
                | Some _ -> raise (Parse_error "exact must be a bool")
                | None -> false
              in
              { name; value; unit_; direction; exact }
            | _ -> raise (Parse_error "metric must be an object"))
          items
      | _ -> raise (Parse_error "metrics must be an array")
    in
    { suite; metrics }
  | _ -> raise (Parse_error "top level must be an object")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  suite_of_json (parse_json s)

(* --- comparison ---------------------------------------------------------- *)

type verdict = Ok_within_tolerance | Regression | Missing_in_current

type comparison = {
  metric : string;
  baseline : float;
  current : float option;
  ratio : float option; (* current / baseline *)
  verdict : verdict;
}

let compare_suites ~tolerance ~baseline ~current =
  List.map
    (fun base ->
      match
        List.find_opt (fun m -> m.name = base.name) current.metrics
      with
      | None ->
        {
          metric = base.name;
          baseline = base.value;
          current = None;
          ratio = None;
          verdict = Missing_in_current;
        }
      | Some cur ->
        let ratio = cur.value /. base.value in
        let regressed =
          if base.exact then cur.value <> base.value
          else
            match base.direction with
            | Higher_is_better -> ratio < 1. -. tolerance
            | Lower_is_better -> ratio > 1. +. tolerance
        in
        {
          metric = base.name;
          baseline = base.value;
          current = Some cur.value;
          ratio = Some ratio;
          verdict = (if regressed then Regression else Ok_within_tolerance);
        })
    baseline.metrics

let render_comparison ~tolerance comparisons =
  let buf = Buffer.create 256 in
  List.iter
    (fun c ->
      match (c.current, c.ratio, c.verdict) with
      | Some cur, Some ratio, verdict ->
        Buffer.add_string buf
          (Printf.sprintf "%-26s baseline %12.4g  current %12.4g  (%+.1f%%)%s\n"
             c.metric c.baseline cur
             ((ratio -. 1.) *. 100.)
             (if verdict = Regression then "  REGRESSION" else ""))
      | _ ->
        Buffer.add_string buf
          (Printf.sprintf "%-26s baseline %12.4g  MISSING in current run\n"
             c.metric c.baseline))
    comparisons;
  let failures =
    List.filter (fun c -> c.verdict <> Ok_within_tolerance) comparisons
  in
  Buffer.add_string buf
    (if failures = [] then
       Printf.sprintf "all %d metrics within %.0f%% of baseline\n"
         (List.length comparisons) (tolerance *. 100.)
     else
       Printf.sprintf "%d of %d metrics regressed beyond %.0f%%\n"
         (List.length failures) (List.length comparisons) (tolerance *. 100.));
  (Buffer.contents buf, failures = [])

(* Every pair is compared and reported — a failing pair never hides the
   ones after it, so one gate run shows every regression at once. *)
let compare_all ~tolerance ~keep pairs =
  let buf = Buffer.create 1024 in
  let ok =
    List.fold_left
      (fun ok (label, load) ->
        match load () with
        | exception (Parse_error msg | Sys_error msg) ->
          Buffer.add_string buf (Printf.sprintf "== %s: cannot read: %s\n" label msg);
          false
        | baseline, current ->
          Buffer.add_string buf (Printf.sprintf "== %s: %s\n" baseline.suite label);
          let baseline = { baseline with metrics = List.filter keep baseline.metrics } in
          let report, pair_ok =
            render_comparison ~tolerance (compare_suites ~tolerance ~baseline ~current)
          in
          Buffer.add_string buf report;
          ok && pair_ok)
      true pairs
  in
  (Buffer.contents buf, ok)
