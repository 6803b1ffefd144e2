open Ra_sim
open Ra_device

type config = {
  mp : Mp.config;
  channel : Channel.config;
  auth_time : Timebase.t;
  retry_timeout : Timebase.t;
  max_attempts : int;
  backoff : float;
  backoff_jitter : float;
  max_timeout : Timebase.t;
}

let default_config =
  {
    mp = Mp.default_config;
    channel = Channel.ideal;
    auth_time = Timebase.us 200;
    retry_timeout = Timebase.s 15;
    max_attempts = 4;
    backoff = 2.0;
    backoff_jitter = 0.1;
    max_timeout = Timebase.minutes 2;
  }

type result = {
  verdict : Verifier.verdict option;
  attempts : int;
  duplicates_suppressed : int;
  retransmits_absorbed : int;
  channel_duplicates_absorbed : int;
  duplicate_replies_ignored : int;
  corrupted_dropped : int;
  measurements_run : int;
  completed_at : Timebase.t option;
  gave_up_at : Timebase.t option;
}

type prover_session = In_progress | Done of Report.t (* cached report *)

(* --- wire helpers: [attempt u16 || nonce] requests, [seq u16 || report]
   replies, both CRC-framed ------------------------------------------------ *)

let encode_request ~attempt nonce =
  let b = Bytes.create (2 + Bytes.length nonce) in
  Bytes.set b 0 (Char.chr ((attempt lsr 8) land 0xff));
  Bytes.set b 1 (Char.chr (attempt land 0xff));
  Bytes.blit nonce 0 b 2 (Bytes.length nonce);
  Frame.seal b

let decode_request payload =
  if Bytes.length payload < 2 then None
  else
    let attempt = (Char.code (Bytes.get payload 0) lsl 8) lor Char.code (Bytes.get payload 1) in
    Some (attempt, Bytes.sub payload 2 (Bytes.length payload - 2))

let encode_reply ~seq report =
  let wire = Report.encode report in
  let b = Bytes.create (2 + Bytes.length wire) in
  Bytes.set b 0 (Char.chr ((seq lsr 8) land 0xff));
  Bytes.set b 1 (Char.chr (seq land 0xff));
  Bytes.blit wire 0 b 2 (Bytes.length wire);
  Frame.seal b

let decode_reply payload =
  if Bytes.length payload < 2 then None
  else begin
    let seq = (Char.code (Bytes.get payload 0) lsl 8) lor Char.code (Bytes.get payload 1) in
    match Report.decode (Bytes.sub payload 2 (Bytes.length payload - 2)) with
    | Ok report -> Some (seq, report)
    | Error _ -> None
  end

let run device verifier config ?rtt ?(mp_hooks = Mp.null_hooks) ~on_done () =
  if config.max_attempts < 1 then invalid_arg "Reliable_protocol: max_attempts < 1";
  if config.backoff < 1.0 then invalid_arg "Reliable_protocol: backoff < 1";
  if config.backoff_jitter < 0.0 then invalid_arg "Reliable_protocol: negative jitter";
  let eng = device.Device.engine in
  let rng = Prng.split (Engine.prng eng) in
  let nonce = Prng.bytes (Engine.prng eng) 16 in
  let attempts = ref 0 in
  let retransmits = ref 0 in
  let channel_dups = ref 0 in
  let dup_replies = ref 0 in
  let corrupted = ref 0 in
  let measurements = ref 0 in
  let finished = ref false in
  (* forward declarations to tie the two channel callbacks together *)
  let uplink = ref None (* request frames: Vrf -> Prv *) in
  let downlink = ref None (* reply frames: Prv -> Vrf *) in
  let send_frame frame =
    match !downlink with Some ch -> Channel.send ch frame | None -> ()
  in
  (* Prover-side per-boot volatile state: the session table (measurement in
     flight / cached reply) and the set of request copies already seen. A
     crash wipes both, so a request retransmitted after reboot triggers a
     fresh measurement instead of replaying a stale cached report. *)
  let sessions : (string, prover_session) Hashtbl.t = Hashtbl.create 4 in
  let seen_copies : (string * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let reply_seq = ref 0 in
  Device.on_crash device (fun () ->
      Hashtbl.reset sessions;
      Hashtbl.reset seen_copies);
  let prover_receives frame =
    (* a powered-down radio receives nothing *)
    if Device.is_up device then begin
      match Frame.open_ frame with
      | Error _ -> incr corrupted
      | Ok payload ->
        (match decode_request payload with
        | None -> incr corrupted
        | Some (attempt, request_nonce) ->
          let key = Bytes.to_string request_nonce in
          let copy_key = (key, attempt) in
          let fresh_copy = not (Hashtbl.mem seen_copies copy_key) in
          Hashtbl.replace seen_copies copy_key ();
          (match Hashtbl.find_opt sessions key with
          | Some In_progress ->
            if fresh_copy then incr retransmits else incr channel_dups
          | Some (Done cached) ->
            if fresh_copy then incr retransmits else incr channel_dups;
            (* retransmitted replies get a fresh sequence number, so on the
               verifier side a repeated number always means the channel
               duplicated a copy *)
            incr reply_seq;
            send_frame (encode_reply ~seq:!reply_seq cached)
          | None ->
            Hashtbl.replace sessions key In_progress;
            let boot_epoch = Device.epoch device in
            ignore
              (Cpu.submit device.Device.cpu ~name:"mp-auth"
                 ~priority:config.mp.Mp.priority ~duration:config.auth_time
                 ~on_complete:(fun () ->
                   incr measurements;
                   Mp.run device config.mp ~nonce:request_nonce ~hooks:mp_hooks
                     ~on_complete:(fun report ->
                       (* the CPU flush makes this unreachable across a
                          reboot, but stay paranoid about stale epochs *)
                       if Device.epoch device = boot_epoch then begin
                         Hashtbl.replace sessions key (Done report);
                         incr reply_seq;
                         send_frame (encode_reply ~seq:!reply_seq report)
                       end)
                     ())
                 ())))
    end
  in
  let finish verdict =
    if not !finished then begin
      finished := true;
      (match (rtt, verdict) with
      | Some estimator, Some _ -> Rtt.note_success estimator
      | Some estimator, None -> Rtt.note_gave_up estimator
      | None, _ -> ());
      let now = Engine.now eng in
      let deliver () =
        on_done
          {
            verdict;
            attempts = !attempts;
            duplicates_suppressed = !retransmits + !channel_dups;
            retransmits_absorbed = !retransmits;
            channel_duplicates_absorbed = !channel_dups;
            duplicate_replies_ignored = !dup_replies;
            corrupted_dropped = !corrupted;
            measurements_run = !measurements;
            completed_at = (match verdict with Some _ -> Some now | None -> None);
            gave_up_at = (match verdict with Some _ -> None | None -> Some now);
          }
      in
      (* Straggling copies of the verdict-carrying reply (channel duplicates,
         reordered siblings) land within the channel's displacement bound of
         the first copy; wait it out so the result's counters include them.
         The verdict itself is dated [now], not delivery. *)
      let drain =
        let c = config.channel in
        Timebase.add (5 * c.Channel.delay) (Timebase.add c.Channel.jitter (Timebase.ms 1))
      in
      ignore (Engine.schedule_after eng ~delay:drain (fun _ -> deliver ()))
    end
  in
  let seen_replies : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let first_sent_at = ref Timebase.zero in
  let verifier_receives frame =
    match Frame.open_ frame with
    | Error _ -> incr corrupted
    | Ok payload ->
      (match decode_reply payload with
      | None -> incr corrupted
      | Some (seq, report) ->
        if Hashtbl.mem seen_replies seq then incr dup_replies
        else begin
          Hashtbl.replace seen_replies seq ();
          if not !finished then begin
            (* Karn's rule: only an exchange with no retransmission yields
               an RTT sample. *)
            (match rtt with
            | Some estimator when !attempts = 1 ->
              Rtt.observe estimator (Timebase.sub (Engine.now eng) !first_sent_at)
            | Some _ | None -> ());
            finish (Some (Verifier.verify_fresh verifier ~nonce report))
          end
        end)
  in
  uplink :=
    Some
      (Channel.create eng config.channel ~corrupt:Channel.flip_random_bit
         ~deliver:prover_receives ());
  downlink :=
    Some
      (Channel.create eng config.channel ~corrupt:Channel.flip_random_bit
         ~deliver:verifier_receives ());
  let rto =
    ref (match rtt with Some estimator -> Rtt.rto estimator | None -> config.retry_timeout)
  in
  let rec attempt () =
    if not !finished then begin
      if !attempts >= config.max_attempts then finish None
      else begin
        incr attempts;
        if !attempts = 1 then first_sent_at := Engine.now eng
        else begin
          (* retransmission: exponential backoff, locally and in the shared
             estimator *)
          (match rtt with Some estimator -> Rtt.backoff estimator | None -> ());
          rto := min config.max_timeout (max 1 (int_of_float (float_of_int !rto *. config.backoff)))
        end;
        let jitter =
          let span = int_of_float (float_of_int !rto *. config.backoff_jitter) in
          if span > 0 then Prng.int rng ~bound:(span + 1) else 0
        in
        (match !uplink with
        | Some ch -> Channel.send ch (encode_request ~attempt:!attempts nonce)
        | None -> ());
        ignore
          (Engine.schedule_after eng ~delay:(Timebase.add !rto jitter) (fun _ ->
               attempt ()))
      end
    end
  in
  attempt ()
