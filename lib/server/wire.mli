(** The attestation control plane's wire messages.

    One request or response is one {!Ra_journal.Codec} payload carried in
    one stream frame ({!Ra_core.Frame.seal_stream}); the frame layer
    handles integrity and reassembly, this layer handles meaning. All
    decoding is total: truncation, unknown tags and trailing bytes come
    back as [Error], so the worst a hostile payload achieves is a dropped
    connection. *)

type request =
  | Submit of { device : string; seq : int; report : Bytes.t }
      (** one attestation report ([report] is {!Ra_core.Report.encode}
          output); [(device, seq)] identifies the submission for dedup,
          so a retransmit after a lost Ack is re-acknowledged, never
          double-counted *)
  | Fleet_health  (** routed endpoint: per-device verdict summary *)
  | Quarantine of string  (** routed endpoint: operator quarantine order *)
  | Fleet_root  (** routed endpoint: fleet Merkle root over verdicts *)
  | Counters  (** routed endpoint: ingest counters *)

type counters = {
  accepted : int;  (** unique reports journaled then processed (ever) *)
  shed : int;  (** submissions refused with [Busy] since this start *)
  deduped : int;  (** retransmits re-acknowledged without re-journaling *)
  rejected : int;  (** malformed or unknown-device submissions *)
  recovered : int;  (** reports replayed out of the journal at restart *)
  commits : int;  (** journal syncs since this start *)
}

type response =
  | Ack of { device : string; seq : int }
      (** the report is durable (journaled and committed) — the client
          may retire it *)
  | Busy of { queued : int; capacity : int }
      (** bounded queue full: explicit backpressure. The client backs
          off (RFC 6298) and retries; nothing was journaled *)
  | Rejected of string  (** permanent: retrying the same bytes is useless *)
  | Health of (string * string) list  (** (device, state), roster order *)
  | Root of Bytes.t
  | Stats of counters

val encode_request : request -> Bytes.t
val decode_request : Bytes.t -> (request, string) result
val encode_response : response -> Bytes.t
val decode_response : Bytes.t -> (response, string) result

val response_to_string : response -> string
(** One-line rendering for logs and the loadgen trace. *)
