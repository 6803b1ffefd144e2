(** The attestation report a prover returns to the verifier. *)

open Ra_sim

type t = {
  scheme_name : string;
  hash : Ra_crypto.Algo.hash;
  nonce : Bytes.t;
  order : int array;  (** blocks in measurement order *)
  mac : Bytes.t;  (** keyed digest over nonce, counter and block stream *)
  data_copy : (int * Bytes.t) list;
      (** contents of volatile data blocks as measured (Section 2.3) *)
  t_start : Timebase.t;  (** ts: measurement started *)
  t_end : Timebase.t;  (** te: measurement finished *)
  t_release : Timebase.t;  (** tr: all locks gone; equals [t_end] without
                               an extension *)
  signature : Ra_device.Cost_model.signature_alg option;
      (** which signature was charged on top of the MAC, if any *)
  counter : int option;  (** monotonic counter (self-measurement / SeED) *)
}

(** {2 Wire format}

    Reports travel from prover to verifier; the binary encoding below is
    length-prefixed and versioned ([RARPT1]). Decoding performs full bounds
    checking and never trusts lengths from the wire. *)

val encode : t -> Bytes.t

val decode : Bytes.t -> (t, string) result
(** Inverse of {!encode}. Returns [Error reason] on truncated input, bad
    magic, unknown enum values, or trailing garbage. *)
