(** Structured event log of a simulation run.

    Every component records [(time, tag, detail)] entries; the log can then be
    filtered and rendered as the timelines of the paper's Figures 1 and 4. *)

type entry = { time : Timebase.t; tag : string; detail : string }

type t

val create : unit -> t

val record : t -> time:Timebase.t -> tag:string -> string -> unit
(** Append an entry. Entries are kept in recording order. *)

val recordf :
  t -> time:Timebase.t -> tag:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted variant of {!record}. *)

val entries : t -> entry list
(** All entries, oldest first. *)

val filter : t -> tag:string -> entry list
(** Entries whose tag equals [tag]. *)

val length : t -> int

val clear : t -> unit
