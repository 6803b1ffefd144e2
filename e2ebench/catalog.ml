(* Every metric the benchmark emits, with its unit, and for each per-layer
   metric the end-to-end metrics it is expected to move and on which
   workloads. BENCHMARK.json must list exactly these names; the tests hold
   the two in step. A layer metric that does not apply to a workload reads
   0 there, and only shares, ratios and counts are allowed to do so. *)

let rollcall = "rollcall"
let steady = "ingest-steady"
let burst = "ingest-burst"
let workloads = [ rollcall; steady; burst ]
let ingest = [ steady; burst ]

(* Tail latencies are printed with their sample counts but not bounded:
   a roll call yields too few samples for any tail, and on ingest their
   run-to-run spread is too wide for a bound to hold. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("peak_rss_mb", "MB");
    ("recover_s", "s");
  ]

(* name, unit, [(end-to-end metric, workloads)] *)
let per_layer =
  [
    ("trace.item_us", "us", [ ("throughput_per_s", workloads); ("latency_p50_ms", workloads) ]);
    ("Gc.major_collections", "count", [ ("throughput_per_s", [ rollcall; burst ]); ("peak_rss_mb", [ rollcall ]) ]);
    ("Ra_cache.hashed", "count", [ ("throughput_per_s", [ rollcall; burst ]) ]);
    ("Ra_cache.hit_rate", "ratio", [ ("throughput_per_s", [ rollcall; burst ]) ]);
    ("Fleet.derive_key.share", "share", [ ("setup_s", [ rollcall ]) ]);
    ("Device.create.share", "share", [ ("throughput_per_s", [ rollcall ]); ("peak_rss_mb", [ rollcall ]) ]);
    ("Device.create.alloc_kw", "kw", [ ("throughput_per_s", [ rollcall ]); ("peak_rss_mb", [ rollcall ]) ]);
    ("Verifier.of_device.share", "share", [ ("throughput_per_s", [ rollcall; burst ]) ]);
    ("Protocol.attest.share", "share", [ ("throughput_per_s", [ rollcall ]); ("latency_p50_ms", [ rollcall ]) ]);
    ("Protocol.attest.alloc_kw", "kw", [ ("throughput_per_s", [ rollcall ]) ]);
    ("Verifier.verify.share", "share", [ ("throughput_per_s", [ rollcall; burst ]) ]);
    ("Merkle.aggregate.share", "share", [ ("throughput_per_s", [ rollcall ]) ]);
    ("Frame.read.share", "share", [ ("latency_p50_ms", [ steady ]); ("throughput_per_s", [ burst ]) ]);
    ("Wire.decode.share", "share", [ ("latency_p50_ms", [ steady ]); ("throughput_per_s", [ burst ]) ]);
    ("Core.submit.share", "share", [ ("latency_p50_ms", [ steady ]); ("throughput_per_s", [ burst ]) ]);
    ("Disk.append.share", "share", [ ("latency_p50_ms", [ steady ]); ("throughput_per_s", [ burst ]) ]);
    ("Disk.sync.share", "share", [ ("latency_p50_ms", [ steady ]); ("throughput_per_s", [ burst ]) ]);
    ("Wire.encode.share", "share", [ ("latency_p50_ms", [ steady ]); ("throughput_per_s", [ burst ]) ]);
    ("Core.drain.share", "share", [ ("throughput_per_s", [ burst ]); ("recover_s", ingest) ]);
    ("Core.root.share", "share", [ ("latency_p50_ms", [ steady ]) ]);
    ("Tcp.residual.share", "share", [ ("throughput_per_s", [ burst ]) ]);
    ("Journal.bytes_per_report", "B", [ ("recover_s", ingest) ]);
    ("Journal.recover.share", "share", [ ("recover_s", ingest) ]);
    ("World.build.share", "share", [ ("recover_s", ingest); ("setup_s", ingest) ]);
    ("Core.replay.share", "share", [ ("recover_s", ingest) ]);
    ("Core.shed", "count", [ ("throughput_per_s", [ burst ]); ("latency_p50_ms", [ burst ]) ]);
    ("client.retry_ratio", "ratio", [ ("throughput_per_s", [ burst ]); ("latency_p50_ms", [ burst ]) ]);
    ("client.backlog_rounds", "count", [ ("latency_p50_ms", [ burst ]) ]);
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> (
      match List.find_opt (fun (n, _, _) -> n = name) per_layer with
      | Some (_, u, _) -> u
      | None -> invalid_arg ("Catalog.unit_of: unknown metric " ^ name))

(* Units that may read 0 on a workload the layer does not serve. *)
let may_be_zero u = List.mem u [ "share"; "ratio"; "count"; "kw"; "B" ]
