(* The cancellation handle IS the queued cell: cancelling flips its [active]
   flag in place and popping flips it back off, so there is no id-to-event
   table to maintain (the old Hashtbl dominated the hot path) and a cancel
   after the event fired is naturally a no-op. [live] counts queued active
   events; a cell leaves the live count exactly once, on cancel or on pop. *)
type event_id = { callback : t -> unit; mutable active : bool }

and t = {
  mutable clock : Timebase.t;
  mutable next_seq : int;
  mutable live : int;
  queue : event_id Eventq.t;
  prng : Prng.t;
}

let create ?(seed = 42) () =
  {
    clock = Timebase.zero;
    next_seq = 0;
    live = 0;
    queue = Eventq.create ();
    prng = Prng.create ~seed;
  }

let now t = t.clock

let prng t = t.prng

let schedule t ~at callback =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %d is before now %d" at t.clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.live <- t.live + 1;
  let cell = { callback; active = true } in
  Eventq.push t.queue ~key:at ~seq cell;
  cell

let schedule_after t ~delay callback =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(Timebase.add t.clock delay) callback

let cancel t cell =
  if cell.active then begin
    cell.active <- false;
    t.live <- t.live - 1
  end

let pending t = t.live

(* Drop cancelled entries off the top of the queue. After this either the
   queue is empty or its minimum is live. *)
let rec settle t =
  if not (Eventq.is_empty t.queue) then
    if not (Eventq.min_value t.queue).active then begin
      Eventq.drop_min t.queue;
      settle t
    end

let step t =
  settle t;
  if Eventq.is_empty t.queue then false
  else begin
    let cell = Eventq.min_value t.queue in
    t.clock <- Eventq.min_key t.queue;
    Eventq.drop_min t.queue;
    cell.active <- false;
    t.live <- t.live - 1;
    cell.callback t;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
    let continue = ref true in
    while !continue do
      settle t;
      if Eventq.is_empty t.queue || Eventq.min_key t.queue > horizon then
        continue := false
      else ignore (step t)
    done;
    if t.clock < horizon then t.clock <- horizon
