open Ra_crypto

let algo_tag = function
  | Algo.SHA_256 -> 0
  | Algo.SHA_512 -> 1
  | Algo.BLAKE2b -> 2
  | Algo.BLAKE2s -> 3

type stats = {
  mutable hits : int;
  mutable store_hits : int;
  mutable misses : int;
}

module Store = struct
  (* Content-addressed digest store shared across devices (and with the
     verifier side). Keys are (algo, content); OCaml's polymorphic hash
     fully mixes short strings and full structural equality resolves any
     bucket collision, so two distinct contents can never share a digest.

     Lock striping: the key space is split across [stripes] independent
     stripes, each with its own table, mutex and counters. A content's
     stripe is a pure function of its bytes, so the compute-once
     discipline holds per stripe — and therefore globally — while
     concurrent shards hashing distinct content take distinct locks and
     never contend. The digest is still computed INSIDE the stripe's
     critical section: when several domains race on the same fresh
     content, exactly one computes it and the rest observe a hit. That
     makes [computed] (and every count derived from it) deterministic
     under any --jobs and any shard count; the public counters are sums
     over stripes, taken stripe-by-stripe at read time, so they are
     deterministic whenever the store is quiescent (which is when the
     fleet layer reads them — at roll-call barriers). *)
  type stripe = {
    table : (int * string, Bytes.t) Hashtbl.t;
    mutex : Mutex.t;
    mutable lookups : int;
    mutable computed : int;
    mutable batched_computes : int;
  }

  type t = {
    stripes : stripe array;
    mask : int; (* stripe count - 1; count is a power of two *)
  }

  let default_stripes = 16

  let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

  let create ?(stripes = default_stripes) () =
    let count = pow2_at_least (max 1 (min stripes 4096)) 1 in
    {
      stripes =
        Array.init count (fun _ ->
            {
              table = Hashtbl.create 256;
              mutex = Mutex.create ();
              lookups = 0;
              computed = 0;
              batched_computes = 0;
            });
      mask = count - 1;
    }

  let stripes t = t.mask + 1

  (* Stripe selection must be a pure, run-independent function of the key
     bytes: the polymorphic hash of (tag, content-string) is exactly that
     (no randomized seeding), and it is the same mixing the stripe tables
     themselves use.
     bounds: unsafe_to_string is an ownership cast, not an access — the
     view exists only for the hash computation and is never stored.
     cross-check: test/test_cache.ml qcheck-diffs the striped store
     against a stripes:1 store under adversarial schedules. *)
  let stripe_of t tag content =
    t.stripes.(Hashtbl.hash (tag, Bytes.unsafe_to_string content) land t.mask)

  (* [content] is borrowed: probed with a zero-copy string view, copied
     into the table only the first time it is seen. The returned digest is
     shared — callers must treat it as immutable.
     bounds: unsafe_to_string is an ownership cast, not an access — the
     view lives only for the probe, inside the lock, and is never stored.
     cross-check: test/test_cache.ml qcheck-diffs cached digests against
     uncached Algo.digest under adversarial write schedules. *)
  let digest t algo content =
    let tag = algo_tag algo in
    let s = stripe_of t tag content in
    Mutex.lock s.mutex;
    s.lookups <- s.lookups + 1;
    let result =
      match Hashtbl.find_opt s.table (tag, Bytes.unsafe_to_string content) with
      | Some d -> (true, d)
      | None ->
        let d = Algo.digest algo content in
        s.computed <- s.computed + 1;
        Hashtbl.replace s.table (tag, Bytes.to_string content) d;
        (false, d)
    in
    Mutex.unlock s.mutex;
    result

  (* Batch lookup: the batch is partitioned by stripe, and each stripe's
     sub-batch is resolved under ONE acquisition of that stripe's lock —
     hits and misses split first, then all misses computed together
     (Algo.digest_many), still inside the critical section. An element's
     classification (table hit, first-occurrence miss, in-batch
     duplicate) depends only on its own stripe's table and
     the sub-batch it shares that stripe with — duplicates always land in
     the same stripe — so results, table state and every counter are
     bit-identical to replaying the same contents through single [digest]
     calls in order, for any job count. Stripes are visited in ascending
     index order and never nested, so concurrent batches cannot deadlock.
     bounds: unsafe_to_string is an ownership cast, not an access — the
     zero-copy views live only inside the lock, keying a scratch
     first-occurrence table that is dropped before unlock; the permanent
     table still receives a Bytes.to_string copy.
     cross-check: test/test_cache.ml qcheck-diffs digest_many results and
     all counters against a sequential replay through Store.digest. *)
  let digest_many t algo contents =
    let n = Array.length contents in
    let results = Array.make n (false, Bytes.empty) in
    if n > 0 then begin
      let tag = algo_tag algo in
      let nstripes = t.mask + 1 in
      (* deterministic partition: per-stripe index lists in input order *)
      let by_stripe = Array.make nstripes [] in
      for i = n - 1 downto 0 do
        let k =
          Hashtbl.hash (tag, Bytes.unsafe_to_string contents.(i)) land t.mask
        in
        by_stripe.(k) <- i :: by_stripe.(k)
      done;
      for k = 0 to nstripes - 1 do
        match by_stripe.(k) with
        | [] -> ()
        | members ->
          let s = t.stripes.(k) in
          Mutex.lock s.mutex;
          s.lookups <- s.lookups + List.length members;
          let pending = Hashtbl.create 8 in
          let dup_of = Hashtbl.create 8 in
          let miss_rev = ref [] in
          List.iter
            (fun i ->
              let key = (tag, Bytes.unsafe_to_string contents.(i)) in
              match Hashtbl.find_opt s.table key with
              | Some d -> results.(i) <- (true, d)
              | None -> (
                match Hashtbl.find_opt pending key with
                | Some first -> Hashtbl.add dup_of i first
                | None ->
                  Hashtbl.add pending key i;
                  miss_rev := i :: !miss_rev))
            members;
          let miss = Array.of_list (List.rev !miss_rev) in
          let fresh =
            Algo.digest_many algo (Array.map (fun i -> contents.(i)) miss)
          in
          s.computed <- s.computed + Array.length miss;
          s.batched_computes <- s.batched_computes + Array.length miss;
          Array.iteri
            (fun j i ->
              let d = fresh.(j) in
              Hashtbl.replace s.table (tag, Bytes.to_string contents.(i)) d;
              results.(i) <- (false, d))
            miss;
          List.iter
            (fun i ->
              match Hashtbl.find_opt dup_of i with
              | Some first -> results.(i) <- (true, snd results.(first))
              | None -> ())
            members;
          Mutex.unlock s.mutex
      done
    end;
    results

  (* Counter reads sum stripe-by-stripe, taking each stripe's lock in
     turn; deterministic whenever no domain is concurrently writing. *)
  let sum_over t f =
    Array.fold_left
      (fun acc s ->
        Mutex.lock s.mutex;
        let v = f s in
        Mutex.unlock s.mutex;
        acc + v)
      0 t.stripes

  let lookups t = sum_over t (fun s -> s.lookups)

  let computed t = sum_over t (fun s -> s.computed)

  let batched_computes t = sum_over t (fun s -> s.batched_computes)

  let distinct_contents t = sum_over t (fun s -> Hashtbl.length s.table)
end

(* Per-device memo: (algo, block) -> (version, digest). One entry per
   block and algorithm — re-measuring an unchanged block is a pure table
   hit with no byte comparison, because Memory guarantees equal versions
   imply identical bytes. A stale version falls through to the shared
   store (if any) and the entry is replaced. *)
type t = {
  memo : (int * int, int * Bytes.t) Hashtbl.t;
  store : Store.t option;
  stats : stats;
}

let create ?store () =
  {
    memo = Hashtbl.create 64;
    store;
    stats = { hits = 0; store_hits = 0; misses = 0 };
  }

let store t = t.store

let stats t = t.stats

let block_digest t algo ~block ~version content =
  let key = (algo_tag algo, block) in
  match Hashtbl.find_opt t.memo key with
  | Some (v, d) when v = version ->
    t.stats.hits <- t.stats.hits + 1;
    d
  | _ ->
    let d =
      match t.store with
      | Some s ->
        let hit, d = Store.digest s algo content in
        if hit then t.stats.store_hits <- t.stats.store_hits + 1
        else t.stats.misses <- t.stats.misses + 1;
        d
      | None ->
        t.stats.misses <- t.stats.misses + 1;
        Algo.digest algo content
    in
    Hashtbl.replace t.memo key (version, d);
    d

(* Batch counterpart of [block_digest] for the distinct blocks of one
   measurement round: all memo probes first, then a single
   Store.digest_many over the misses. Because the blocks are distinct the
   memo probes are independent of each other, so every counter (memo
   hits, store hits, misses, and all store counters) lands exactly as if
   [block_digest] had been called once per block in order. *)
let block_digest_many t algo ~blocks ~versions contents =
  let n = Array.length blocks in
  if Array.length versions <> n || Array.length contents <> n then
    invalid_arg "Ra_cache.block_digest_many: length mismatch";
  let out = Array.make n Bytes.empty in
  let tag = algo_tag algo in
  let miss_rev = ref [] in
  for i = 0 to n - 1 do
    match Hashtbl.find_opt t.memo (tag, blocks.(i)) with
    | Some (v, d) when v = versions.(i) ->
      t.stats.hits <- t.stats.hits + 1;
      out.(i) <- d
    | _ -> miss_rev := i :: !miss_rev
  done;
  let miss = Array.of_list (List.rev !miss_rev) in
  (match t.store with
  | Some s ->
    let res = Store.digest_many s algo (Array.map (fun i -> contents.(i)) miss) in
    Array.iteri
      (fun k i ->
        let hit, d = res.(k) in
        if hit then t.stats.store_hits <- t.stats.store_hits + 1
        else t.stats.misses <- t.stats.misses + 1;
        Hashtbl.replace t.memo (tag, blocks.(i)) (versions.(i), d);
        out.(i) <- d)
      miss
  | None ->
    let ds = Algo.digest_many algo (Array.map (fun i -> contents.(i)) miss) in
    Array.iteri
      (fun k i ->
        t.stats.misses <- t.stats.misses + 1;
        Hashtbl.replace t.memo (tag, blocks.(i)) (versions.(i), ds.(k));
        out.(i) <- ds.(k))
      miss);
  out

let requests stats = stats.hits + stats.store_hits + stats.misses
