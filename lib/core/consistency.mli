(** Temporal-consistency checking (Section 3.1, Fig. 4).

    A report is *consistent with memory at instant t* when its MAC equals
    the MAC recomputed over the exact memory image at t (reconstructed from
    the device's write journal). The paper's claims become checkable
    properties: All-Lock reports are consistent at every instant of
    [\[ts, te\]], Dec-Lock exactly at ts, Inc-Lock exactly at te, No-Lock
    possibly nowhere. *)

open Ra_sim

val holds_at : Ra_device.Device.t -> Report.t -> time:Timebase.t -> bool

val check_instants :
  Ra_device.Device.t ->
  Report.t ->
  (string * Timebase.t) list ->
  (string * Timebase.t * bool) list
(** Evaluate {!holds_at} at labelled instants (the A/B/C/D probes of
    Fig. 4). *)

val consistent_throughout :
  Ra_device.Device.t -> Report.t -> from_:Timebase.t -> until:Timebase.t -> bool
(** True when the report is consistent at [from_], [until], and every
    journaled write instant in between — which, writes being the only way
    memory changes, covers the whole continuous interval. *)

val consistency_profile :
  Ra_device.Device.t ->
  Report.t ->
  samples:int ->
  margin:Timebase.t ->
  (Timebase.t * bool) list
(** Sampled profile over [\[ts - margin, tr + margin\]], for rendering. *)
