(* Spans recorded around the benchmark's calls into each layer's public
   functions. They stay in memory while the workload runs and are written
   as JSONL once it ends, so recording costs a clock read and a small
   record per call, not I/O. Disabled, [span] is a plain call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** enclosing span's id, -1 at top level *)
  req : int;  (** request or device the span worked for, -1 if none *)
  start_ns : int;
  stop_ns : int;
  alloc_w : float;  (** minor-heap words allocated inside, children included *)
}

let enabled = ref false
let recorded = ref []
let next_id = ref 0
let open_spans = ref []
let current_req = ref (-1)

let reset () =
  recorded := [];
  next_id := 0;
  open_spans := [];
  current_req := -1

let spans () = List.rev !recorded

let with_req req f =
  let saved = !current_req in
  current_req := req;
  Fun.protect ~finally:(fun () -> current_req := saved) f

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let req = !current_req in
    open_spans := id :: !open_spans;
    let w0 = Gc.minor_words () in
    let start_ns = Clock.now_ns () in
    let finish () =
      let stop_ns = Clock.now_ns () in
      let alloc_w = Gc.minor_words () -. w0 in
      open_spans := List.tl !open_spans;
      recorded := { id; name; parent; req; start_ns; stop_ns; alloc_w } :: !recorded
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

type layer = { calls : int; self_ns : int; self_alloc_w : float }

(* Per-name self time: each span's duration minus the part of it its direct
   children cover, summed over every span of that name. *)
let self_times spans =
  let child_ns = Hashtbl.create 1024 and child_w = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let add tbl v = Hashtbl.replace tbl s.parent (v +. Option.value ~default:0. (Hashtbl.find_opt tbl s.parent)) in
        add child_ns (float_of_int (s.stop_ns - s.start_ns));
        add child_w s.alloc_w
      end)
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0. (Hashtbl.find_opt child_ns s.id) in
      let self = s.stop_ns - s.start_ns - int_of_float covered in
      let w = s.alloc_w -. Option.value ~default:0. (Hashtbl.find_opt child_w s.id) in
      let prev =
        Option.value ~default:{ calls = 0; self_ns = 0; self_alloc_w = 0. }
          (Hashtbl.find_opt acc s.name)
      in
      Hashtbl.replace acc s.name
        { calls = prev.calls + 1; self_ns = prev.self_ns + self; self_alloc_w = prev.self_alloc_w +. w })
    spans;
  List.sort (fun (a, _) (b, _) -> compare a b) (Hashtbl.fold (fun name l a -> (name, l) :: a) acc [])

(* The layer table: self time and allocation per item, and each layer's
   share of [total_ns]. *)
let table ~items ~total_ns layers =
  let per v = v /. float_of_int items in
  Printf.sprintf "%-22s %12s %7s %10s %8s" "layer" "us/item" "share" "kw/item" "calls"
  :: List.map
       (fun (name, l) ->
         Printf.sprintf "%-22s %12.2f %6.1f%% %10.2f %8d" name
           (per (Clock.us_of_ns l.self_ns))
           (100. *. float_of_int l.self_ns /. float_of_int total_ns)
           (per l.self_alloc_w /. 1000.)
           l.calls)
       layers

let share layers ~total_ns name =
  match List.assoc_opt name layers with
  | Some l -> float_of_int l.self_ns /. float_of_int total_ns
  | None -> 0.

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d,\"alloc_w\":%.0f}\n"
            s.id s.name s.start_ns s.stop_ns s.parent s.req s.alloc_w)
        spans)
