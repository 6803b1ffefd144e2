(** TyTAN-style per-process attestation (Section 3.1).

    Memory is split into per-process regions; each region is measured as
    its own interruptible unit. The process being measured is suspended —
    it cannot move itself — so *single-process* malware is always caught.
    But isolation is per process: malware spread over two colluding
    processes hands the payload back and forth so it is never inside the
    region currently being measured. This module reproduces exactly that
    paragraph of the paper. *)

type process = {
  name : string;
  first_block : int;
  block_span : int;  (** contiguous blocks owned by this process *)
}

type config = {
  processes : process list;  (** must partition [0, blocks) *)
  hash : Ra_crypto.Algo.hash;
  priority : int;
}

val partition : Ra_device.Device.t -> names:string list -> process list
(** Split the device's blocks evenly across [names] (earlier processes get
    the remainder blocks). *)

type hooks = {
  on_region_start : measured:process -> unit;
      (** the region's process is now suspended; *other* processes may act *)
  on_region_done : measured:process -> unit;
}

val run :
  Ra_device.Device.t ->
  config ->
  nonce:Bytes.t ->
  ?hooks:hooks ->
  on_complete:((process * Report.t) list -> unit) ->
  unit ->
  unit
(** Measure every process region in list order; each region report is
    MAC'd over a nonce extended with the process name. Raises
    [Invalid_argument] if the processes do not partition memory. *)

val verify_all :
  Verifier.t -> (process * Report.t) list -> (string * Verifier.verdict) list
(** Region-verify each report against the shared expected image (region
    nonces are carried inside the reports). *)
