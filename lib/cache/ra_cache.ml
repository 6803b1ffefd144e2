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
