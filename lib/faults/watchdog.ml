open Ra_sim

type t = {
  engine : Engine.t;
  timeout : Timebase.t;
  on_bite : unit -> unit;
  mutable armed : bool;
  mutable deadline : Timebase.t;
  mutable bites : int;
}

let rec watch t =
  if t.armed then
    ignore
      (Engine.schedule t.engine ~at:t.deadline (fun _ ->
           if t.armed then begin
             if Engine.now t.engine >= t.deadline then begin
               (* not petted in time *)
               t.bites <- t.bites + 1;
               t.deadline <- Timebase.add (Engine.now t.engine) t.timeout;
               watch t;
               t.on_bite ()
             end
             else
               (* a pet moved the deadline; chase it *)
               watch t
           end))

let create engine ~timeout ~on_bite =
  if timeout <= 0 then invalid_arg "Watchdog.create: timeout <= 0";
  let t =
    {
      engine;
      timeout;
      on_bite;
      armed = true;
      deadline = Timebase.add (Engine.now engine) timeout;
      bites = 0;
    }
  in
  watch t;
  t

let pet t =
  if t.armed then t.deadline <- Timebase.add (Engine.now t.engine) t.timeout

let disarm t = t.armed <- false

let bites t = t.bites
