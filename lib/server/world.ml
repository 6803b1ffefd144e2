open Ra_core

(* The server's fleet world: the roster, a verifier view per device, and
   the verdict table the routed endpoints serve from. Provisioning is a
   pure function of (devices, seed) — the load generator builds its
   prover fleet from the same recipe, so the server can verify traffic it
   has never seen without any key exchange, exactly like a fleet enrolled
   at manufacture time. *)

type entry = {
  mutable last_seq : int;  (* highest applied submission; 0 = none *)
  mutable verdict : Verifier.verdict option;
  mutable mac : Bytes.t;
  mutable quarantined : bool;
}

type t = {
  fleet : Fleet.t;
  roster : string array;
  index : (string, int) Hashtbl.t;
  entries : entry array;
}

let device_id i = Printf.sprintf "node-%05d" i

let master_secret ~seed =
  Ra_crypto.Sha256.digest
    (Bytes.of_string (Printf.sprintf "ra-server master secret %d" seed))

let device_config =
  {
    Ra_device.Device.default_config with
    Ra_device.Device.blocks = 16;
    block_size = 256;
    modeled_block_bytes = 1024 * 1024;
  }

let build ~devices ~seed =
  if devices < 1 then invalid_arg "World.build: devices < 1";
  let fleet = Fleet.create ~master_secret:(master_secret ~seed) () in
  let roster =
    Array.init devices (fun i ->
        let id = device_id i in
        Fleet.provision_virtual fleet id ~config:device_config ();
        id)
  in
  let index = Hashtbl.create (2 * devices) in
  Array.iteri (fun i id -> Hashtbl.replace index id i) roster;
  let entries =
    Array.init devices (fun _ ->
        { last_seq = 0; verdict = None; mac = Bytes.empty; quarantined = false })
  in
  { fleet; roster; index; entries }

let fleet t = t.fleet
let known t id = Hashtbl.mem t.index id

let verify t ~device report =
  (Verifier.verify (Fleet.verifier_for t.fleet device) report, report.Report.mac)

let record t ~device ~seq verdict mac =
  match Hashtbl.find_opt t.index device with
  | None -> invalid_arg "World.record: unknown device"
  | Some i ->
      let e = t.entries.(i) in
      if seq >= e.last_seq then begin
        e.last_seq <- seq;
        e.verdict <- Some verdict;
        e.mac <- mac
      end

let quarantine t device =
  match Hashtbl.find_opt t.index device with
  | None -> false
  | Some i ->
      t.entries.(i).quarantined <- true;
      true

let state_string e =
  if e.quarantined then "quarantined"
  else
    match e.verdict with
    | None -> "unreported"
    | Some Verifier.Clean -> "clean"
    | Some Verifier.Tampered -> "tampered"

let health t =
  Array.to_list
    (Array.mapi (fun i id -> (id, state_string t.entries.(i))) t.roster)

let verdict_counts t =
  let clean = ref 0 and tampered = ref 0 and unreported = ref 0 in
  Array.iter
    (fun e ->
      match e.verdict with
      | Some Verifier.Clean -> incr clean
      | Some Verifier.Tampered -> incr tampered
      | None -> incr unreported)
    t.entries;
  (!clean, !tampered, !unreported)

(* The leaf binds identity, status and the verified transcript MAC, so
   two runs agree on the root only if every device ended with the same
   evidence — the bit-identity the restart gate compares. Quarantine
   overrides the verdict byte: an operator order is part of fleet state
   and must survive a restart visibly. *)
let status_byte e =
  if e.quarantined then "\x03"
  else
    match e.verdict with
    | None -> "\x00"
    | Some Verifier.Clean -> "\x01"
    | Some Verifier.Tampered -> "\x02"

let root t =
  let leaves =
    Array.mapi
      (fun i id ->
        let e = t.entries.(i) in
        Bytes.concat Bytes.empty
          [ Bytes.of_string id; Bytes.of_string (status_byte e); e.mac ])
      t.roster
  in
  Merkle.root_of_leaves Ra_crypto.Algo.SHA_256 ~leaves
