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

let of_device device =
  let config = device.Ra_device.Device.config in
  let size = config.Ra_device.Device.blocks * config.Ra_device.Device.block_size in
  create
    ?store:config.Ra_device.Device.store
    ~key:config.Ra_device.Device.key
    ~expected_image:
      (Ra_device.Device.firmware_image ~seed:config.Ra_device.Device.seed ~size)
    ~block_size:config.Ra_device.Device.block_size
    ~data_blocks:config.Ra_device.Device.data_blocks
    ~zero_data:false ()

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


let digest_content_many t hash contents =
  match t.store with
  | Some store -> Array.map snd (Ra_cache.Store.digest_many store hash contents)
  | None -> Ra_crypto.Algo.digest_many hash contents

(* Expected digests for a whole report are gathered as one batch: memo
   probes and data-copy resolution first, then a single batch digest for
   everything still unknown. Mirrors the prover's batch path, so both
   sides of a fleet drive the shared store exclusively through its
   single-lock batch entry point — and the store counters still land
   exactly as the per-block calls would have. *)
let expected_mac t report =
  let blocks = Bytes.length t.expected_image / t.block_size in
  if not (valid_order report.Report.order blocks) then None
  else begin
    let hash = report.Report.hash in
    let n = Array.length report.Report.order in
    let digests = Array.make n None in
    let todo_idx = ref [] and todo_content = ref [] in
    let missing = ref false in
    Array.iteri
      (fun i block ->
        let enqueue content =
          todo_idx := i :: !todo_idx;
          todo_content := content :: !todo_content
        in
        if List.mem block t.data_blocks then begin
          if t.zero_data then enqueue (Bytes.make t.block_size '\000')
          else
            match List.assoc_opt block report.Report.data_copy with
            | Some content -> enqueue content
            | None -> missing := true
        end
        else
          match Hashtbl.find_opt t.memo (hash, block) with
          | Some d -> digests.(i) <- Some d
          | None ->
            enqueue
              (Bytes.sub t.expected_image (block * t.block_size) t.block_size))
      report.Report.order;
    (* A missing data copy aborts cleanly before any digesting. *)
    if !missing then None
    else begin
      let idxs = Array.of_list (List.rev !todo_idx) in
      let contents = Array.of_list (List.rev !todo_content) in
      let fresh = digest_content_many t hash contents in
      Array.iteri
        (fun k i ->
          let block = report.Report.order.(i) in
          if not (List.mem block t.data_blocks) then
            Hashtbl.replace t.memo (hash, block) fresh.(k);
          digests.(i) <- Some fresh.(k))
        idxs;
      Some
        (Mp.mac_over_digests ~hash ~key:t.key
           ~nonce:report.Report.nonce ~counter:report.Report.counter
           ~order:report.Report.order
           ~digests:(Array.map Option.get digests))
    end
  end

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
