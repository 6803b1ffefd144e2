module J = Ra_journal.Journal
module Ev = Ra_journal.Event

(* The journal's campaign framing, owned here for every journaled
   experiment: a leading "campaign" record naming the experiment and the
   integers that rebuild its world, the experiment's own records, and a
   trailing "campaign-end" record. Commit is a no-op on a verify-mode
   journal, so recording and replay frame through the same calls. *)

let start journal ~experiment params =
  J.append journal
    (Ev.make "campaign"
       (("experiment", Ev.S experiment) :: List.map (fun (k, v) -> (k, Ev.I v)) params));
  J.commit journal

let finish journal fields =
  J.append journal (Ev.make "campaign-end" fields);
  J.commit journal

let experiment events =
  if Array.length events = 0 || events.(0).Ev.tag <> "campaign" then None
  else Ev.find_s events.(0) "experiment"

let params ~experiment ~keys events =
  if Array.length events = 0 then Error "journal is empty"
  else begin
    let e = events.(0) in
    if e.Ev.tag <> "campaign" then
      Error "journal does not start with a campaign record"
    else if Ev.find_s e "experiment" <> Some experiment then
      Error "journal records a different experiment"
    else
      let found = List.filter_map (Ev.find_i e) keys in
      if List.length found = List.length keys then Ok found
      else Error "malformed campaign record"
  end

let ended events =
  let n = Array.length events in
  if n > 0 && events.(n - 1).Ev.tag = "campaign-end" then Ok ()
  else Error "journal records an interrupted campaign (no campaign-end)"
