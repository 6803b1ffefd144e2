(** The journal's campaign record format, shared by every journaled
    experiment ({!Fleet_roll}, {!Fleet_chaos}) and by [ratool replay]'s
    dispatch.

    A campaign journal is a "campaign" header — an [experiment] tag plus
    the integer parameters that rebuild the world deterministically — then
    the experiment's own records, then a "campaign-end" record carrying
    the result digest. The header and end are committed as they are
    written; on a verify-mode journal the same calls byte-compare instead,
    so recording and replay share one framing path. *)

val start :
  Ra_journal.Journal.t -> experiment:string -> (string * int) list -> unit
(** Append and commit the "campaign" header: [experiment] first, then
    [params] in order. *)

val finish : Ra_journal.Journal.t -> (string * Ra_journal.Event.value) list -> unit
(** Append and commit the "campaign-end" record with [fields]. *)

val experiment : Ra_journal.Event.t array -> string option
(** The [experiment] tag of a journal's leading campaign header; [None]
    when the journal does not start with one. *)

val params :
  experiment:string ->
  keys:string list ->
  Ra_journal.Event.t array ->
  (int list, string) result
(** The integer header fields named by [keys], in order. [Error] when the
    journal is empty, does not start with a campaign header, belongs to a
    different [experiment], or lacks one of the [keys]. *)

val ended : Ra_journal.Event.t array -> (unit, string) result
(** [Ok] iff the journal's last record is the "campaign-end" — the
    must-end check replay applies before re-executing a campaign. *)
