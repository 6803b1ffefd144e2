type entry = { time : Timebase.t; tag : string; detail : string }

type t = { mutable rev_entries : entry list; mutable count : int }

let create () = { rev_entries = []; count = 0 }

let record t ~time ~tag detail =
  t.rev_entries <- { time; tag; detail } :: t.rev_entries;
  t.count <- t.count + 1

let recordf t ~time ~tag fmt =
  Format.kasprintf (fun detail -> record t ~time ~tag detail) fmt

let entries t = List.rev t.rev_entries

let filter t ~tag = List.filter (fun e -> String.equal e.tag tag) (entries t)

let length t = t.count

let clear t =
  t.rev_entries <- [];
  t.count <- 0
