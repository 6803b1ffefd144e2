open Ra_sim

(* The end-to-end chaos gate for the control plane: seeded campaigns over
   the simulated network, each under the harsh stream-fault mix with a
   kill -9 injected mid-ingest, checked against an unkilled fault-free
   reference run of the same campaign. A trial passes only if the faulted,
   killed, restarted campaign converges to the exact state of the
   undisturbed one — same fleet root, same accepted count, same verdict
   split — and does so reproducibly (the faulted run is executed twice and
   at two --jobs values, which must agree bit for bit). *)

type trial = {
  seed : int;
  crash_step : int;
  outcome : Netsim.outcome;
  failures : string list;
}

type report = {
  trials : trial list;
  devices : int;
  reports_per_device : int;
  capacity : int;
  total_shed : int;
  total_retries : int;
  total_busy : int;
  total_dead_conns : int;
}

let ok report = List.for_all (fun t -> t.failures = []) report.trials

let signature (o : Netsim.outcome) =
  Printf.sprintf "acc=%d shed=%d dedup=%d rej=%d acked=%d retries=%d busy=%d dead=%d root=%s"
    o.Netsim.counters.Wire.accepted o.Netsim.counters.Wire.shed
    o.Netsim.counters.Wire.deduped o.Netsim.counters.Wire.rejected
    o.Netsim.acked o.Netsim.retries o.Netsim.busy o.Netsim.dead_conns
    (Ra_crypto.Bytesutil.to_hex o.Netsim.root)

let run_trial ?jobs ~devices ~reports_per_device ~capacity seed =
  let rng = Prng.create ~seed:(seed lxor 0xc4a05) in
  let crash_step = 20 + Prng.int rng ~bound:60 in
  let base =
    {
      Netsim.default with
      Netsim.devices;
      reports_per_device;
      capacity;
      seed;
    }
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let total = devices * reports_per_device in
  let faulted = { base with Netsim.crash_at = Some crash_step } in
  match Netsim.run ?jobs faulted with
  | Error e ->
      {
        seed;
        crash_step;
        outcome =
          {
            Netsim.counters =
              {
                Wire.accepted = 0;
                shed = 0;
                deduped = 0;
                rejected = 0;
                recovered = 0;
                commits = 0;
              };
            root = Bytes.empty;
            tampered = 0;
            clean = 0;
            acked = 0;
            retries = 0;
            busy = 0;
            dead_conns = 0;
            restarts = 0;
            steps = 0;
          };
        failures = [ "campaign failed outright: " ^ e ];
      }
  | Ok outcome ->
      (* the unkilled, fault-free reference *)
      (match Netsim.run ?jobs { base with Netsim.faults = Ra_faults.Stream_faults.ideal } with
      | Error e -> fail "reference run failed: %s" e
      | Ok reference ->
          if not (Bytes.equal outcome.Netsim.root reference.Netsim.root) then
            fail "fleet root diverged from the unkilled run: %s vs %s"
              (Ra_crypto.Bytesutil.to_hex outcome.Netsim.root)
              (Ra_crypto.Bytesutil.to_hex reference.Netsim.root);
          if outcome.Netsim.counters.Wire.accepted <> reference.Netsim.counters.Wire.accepted
          then
            fail "accepted diverged: %d vs %d" outcome.Netsim.counters.Wire.accepted
              reference.Netsim.counters.Wire.accepted;
          if outcome.Netsim.tampered <> reference.Netsim.tampered then
            fail "tampered verdicts diverged: %d vs %d" outcome.Netsim.tampered
              reference.Netsim.tampered);
      if outcome.Netsim.acked <> total then
        fail "campaign retired %d of %d items" outcome.Netsim.acked total;
      if outcome.Netsim.restarts <> 1 then
        fail "expected exactly one restart, saw %d" outcome.Netsim.restarts;
      if outcome.Netsim.counters.Wire.recovered = 0 then
        fail "restart recovered nothing from the journal";
      (* reproducibility: same seed, same bytes — twice, and across jobs *)
      (match Netsim.run ?jobs faulted with
      | Error e -> fail "determinism rerun failed: %s" e
      | Ok again ->
          if signature again <> signature outcome then
            fail "same seed produced different campaigns:\n  %s\n  %s"
              (signature outcome) (signature again));
      (match Netsim.run ~jobs:(match jobs with Some 1 -> 2 | _ -> 1) faulted with
      | Error e -> fail "jobs-invariance run failed: %s" e
      | Ok other ->
          if signature other <> signature outcome then
            fail "outcome depends on --jobs:\n  %s\n  %s" (signature outcome)
              (signature other));
      { seed; crash_step; outcome; failures = List.rev !failures }

let run ?jobs ?(trials = 5) ?(devices = 24) ?(reports_per_device = 4)
    ?(capacity = 8) ?(seed = 7) () =
  let trials =
    List.init trials (fun i ->
        run_trial ?jobs ~devices ~reports_per_device ~capacity (seed + (1000 * i)))
  in
  {
    trials;
    devices;
    reports_per_device;
    capacity;
    total_shed =
      List.fold_left (fun a t -> a + t.outcome.Netsim.counters.Wire.shed) 0 trials;
    total_retries = List.fold_left (fun a t -> a + t.outcome.Netsim.retries) 0 trials;
    total_busy = List.fold_left (fun a t -> a + t.outcome.Netsim.busy) 0 trials;
    total_dead_conns =
      List.fold_left (fun a t -> a + t.outcome.Netsim.dead_conns) 0 trials;
  }

let render r =
  let b = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  p "server-chaos: %d trial(s), %d devices x %d reports, queue capacity %d"
    (List.length r.trials) r.devices r.reports_per_device r.capacity;
  List.iter
    (fun t ->
      let o = t.outcome in
      p "  seed %-6d kill@%-3d %s" t.seed t.crash_step
        (if t.failures = [] then "ok" else "FAIL");
      p "    accepted=%d shed=%d deduped=%d recovered=%d acked=%d retries=%d busy=%d dead-conns=%d steps=%d"
        o.Netsim.counters.Wire.accepted o.Netsim.counters.Wire.shed
        o.Netsim.counters.Wire.deduped o.Netsim.counters.Wire.recovered
        o.Netsim.acked o.Netsim.retries o.Netsim.busy o.Netsim.dead_conns
        o.Netsim.steps;
      p "    root=%s" (Ra_crypto.Bytesutil.to_hex o.Netsim.root);
      List.iter (fun f -> p "    - %s" f) t.failures)
    r.trials;
  p "  totals: shed=%d retries=%d busy=%d dead-conns=%d" r.total_shed
    r.total_retries r.total_busy r.total_dead_conns;
  p "  invariants: %s" (if ok r then "all hold" else "VIOLATED");
  Buffer.contents b
