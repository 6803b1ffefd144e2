type t = {
  key : Bytes.t;
  expected_image : Bytes.t;
  block_size : int;
  data_blocks : int list;
  zero_data : bool;
  (* Expected code-block digests are nonce-independent, so they are
     memoised per verifier — (hash, block) -> digest — and optionally
     resolved through the fleet's content-addressed store, where the
     prover side has usually already paid for them. Data blocks are never
     memoised: their expected content varies per report. *)
  memo : (Ra_crypto.Algo.hash * int, Bytes.t) Hashtbl.t;
  store : Ra_cache.Store.t option;
}

type verdict = Clean | Tampered

let verdict_to_string = function Clean -> "clean" | Tampered -> "TAMPERED"

let create ?store ~key ~expected_image ~block_size ~data_blocks ~zero_data () =
  if Bytes.length expected_image mod block_size <> 0 then
    invalid_arg "Verifier.create: image not a multiple of block size";
  {
    key;
    expected_image;
    block_size;
    data_blocks;
    zero_data;
    memo = Hashtbl.create 64;
    store;
  }

let of_config (config : Ra_device.Device.config) =
  create ?store:config.store ~key:config.key
    ~expected_image:(Ra_device.Device.image config)
    ~block_size:config.block_size ~data_blocks:config.data_blocks
    ~zero_data:false ()

let of_device device = of_config device.Ra_device.Device.config

let with_zero_data t zero_data = { t with zero_data }

(* distinct, in-range blocks; full coverage is checked separately so that
   per-process (TyTAN-style) region reports can share the machinery *)
let valid_order order blocks =
  let seen = Array.make blocks false in
  Array.for_all
    (fun b ->
      if b < 0 || b >= blocks || seen.(b) then false
      else begin
        seen.(b) <- true;
        true
      end)
    order

let digest_content t hash content =
  match t.store with
  | Some store -> snd (Ra_cache.Store.digest store hash content)
  | None -> Ra_crypto.Algo.digest hash content

(* A data block's expected content is the zero block or the copy the
   report carries, digested fresh each time; a code block's digest comes
   from the memo, else from the expected image through the store. *)
let expected_digest t hash report block =
  if List.mem block t.data_blocks then
    digest_content t hash
      (if t.zero_data then Bytes.make t.block_size '\000'
       else List.assoc block report.Report.data_copy)
  else
    match Hashtbl.find_opt t.memo (hash, block) with
    | Some d -> d
    | None ->
      let d =
        digest_content t hash
          (Bytes.sub t.expected_image (block * t.block_size) t.block_size)
      in
      Hashtbl.replace t.memo (hash, block) d;
      d

(* Every data block's copy is checked before anything is digested, so a
   malformed report leaves the memo and the store untouched. *)
let expected_mac t report =
  let blocks = Bytes.length t.expected_image / t.block_size in
  let has_copy block =
    t.zero_data
    || (not (List.mem block t.data_blocks))
    || List.mem_assoc block report.Report.data_copy
  in
  if not (valid_order report.Report.order blocks) then None
  else if not (Array.for_all has_copy report.Report.order) then None
  else
    let hash = report.Report.hash in
    Some
      (Mp.mac_over_digests ~hash ~key:t.key ~nonce:report.Report.nonce
         ~counter:report.Report.counter ~order:report.Report.order
         ~digests:(Array.map (expected_digest t hash report) report.Report.order))

let mac_matches t report =
  match expected_mac t report with
  | None -> false
  | Some mac -> Ra_crypto.Bytesutil.constant_time_equal mac report.Report.mac

let verify t report =
  let blocks = Bytes.length t.expected_image / t.block_size in
  if Array.length report.Report.order = blocks && mac_matches t report
  then Clean
  else Tampered

let verify_region t ~region report =
  let sorted a =
    let copy = Array.copy a in
    Array.sort Int.compare copy;
    copy
  in
  if sorted report.Report.order = sorted (Array.of_list region) && mac_matches t report
  then Clean
  else Tampered

let verify_fresh t ~nonce report =
  if Bytes.equal nonce report.Report.nonce then verify t report else Tampered
