(* Tests for the crypto substrate against official vectors (FIPS 180-4,
   RFC 7693, RFC 4231) plus structural properties. *)

open Ra_crypto

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let hex = Bytesutil.to_hex

(* --- Bytesutil ------------------------------------------------------------ *)

let test_hex_roundtrip () =
  let b = Bytes.of_string "\x00\x01\xfe\xff ok" in
  check Alcotest.bytes "roundtrip" b (Bytesutil.of_hex (Bytesutil.to_hex b));
  check Alcotest.string "known" "00fe" (Bytesutil.to_hex (Bytes.of_string "\x00\xfe"));
  Alcotest.check_raises "odd length" (Invalid_argument "Bytesutil.of_hex: odd length")
    (fun () -> ignore (Bytesutil.of_hex "abc"));
  Alcotest.check_raises "bad char"
    (Invalid_argument "Bytesutil.of_hex: invalid character") (fun () ->
      ignore (Bytesutil.of_hex "zz"))

let test_xor () =
  let a = Bytes.of_string "\x0f\xf0" and b = Bytes.of_string "\xff\xff" in
  check Alcotest.string "xor" "f00f" (hex (Bytesutil.xor a b))

let test_constant_time_equal () =
  let a = Bytes.of_string "same-bytes" in
  check Alcotest.bool "equal" true (Bytesutil.constant_time_equal a (Bytes.copy a));
  check Alcotest.bool "different" false
    (Bytesutil.constant_time_equal a (Bytes.of_string "same-byteZ"));
  check Alcotest.bool "length mismatch" false
    (Bytesutil.constant_time_equal a (Bytes.of_string "same"))

let prop_load_store_roundtrip =
  QCheck.Test.make ~name:"32/64-bit load/store roundtrips" ~count:300
    QCheck.(pair int64 (int_bound 0xFFFFFFFF))
    (fun (v64, v32) ->
      let b = Bytes.create 8 in
      Bytesutil.store64_be b 0 v64;
      let be64 = Bytesutil.load64_be b 0 in
      Bytesutil.store64_le b 0 v64;
      let le64 = Bytesutil.load64_le b 0 in
      Bytesutil.store32_be b 0 v32;
      let be32 = Bytesutil.load32_be b 0 in
      Bytesutil.store32_le b 0 v32;
      let le32 = Bytesutil.load32_le b 0 in
      Int64.equal be64 v64 && Int64.equal le64 v64 && be32 = v32 && le32 = v32)

(* --- Hash vectors ----------------------------------------------------------- *)

let vector_tests =
  let cases =
    [
      ( "sha256 empty", Sha256.hex_digest "",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" );
      ( "sha256 abc", Sha256.hex_digest "abc",
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" );
      ( "sha256 448-bit",
        Sha256.hex_digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( "sha256 million a", Sha256.hex_digest (String.make 1_000_000 'a'),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
      ( "sha512 empty", Sha512.hex_digest "",
        "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
      );
      ( "sha512 abc", Sha512.hex_digest "abc",
        "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
      );
      ( "sha512 896-bit",
        Sha512.hex_digest
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
      );
      ( "blake2b empty", Blake2b.hex_digest "",
        "786a02f742015903c6c6fd852552d272912f4740e15847618a86e217f71f5419d25e1031afee585313896444934eb04b903a685b1448b755d56f701afe9be2ce"
      );
      ( "blake2b abc", Blake2b.hex_digest "abc",
        "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d17d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923"
      );
      ( "blake2s empty", Blake2s.hex_digest "",
        "69217a3079908094e11121d042354a7c1f55b6482ca1a51e1b250dfd1ed0eef9" );
      ( "blake2s abc", Blake2s.hex_digest "abc",
        "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982" );
    ]
  in
  List.map
    (fun (name, got, expected) ->
      Alcotest.test_case name `Quick (fun () -> check Alcotest.string name expected got))
    cases

let test_blake2_keyed () =
  let key = Bytes.of_string "secret-key-0123456789" in
  let msg = Bytes.of_string "The quick brown fox" in
  check Alcotest.string "blake2b keyed"
    "3cf1e81405b4575678170dba73f6384af3e404eae6b89f04c67cc0156c4d65bab157ed9ae5d18e55a6b7a179fc82d519a45b9d3bf8d492c18d131a1f2efe20f4"
    (hex (Blake2b.mac ~key msg));
  check Alcotest.string "blake2s keyed"
    "51d24e8e02a2571c49f3354f314abd47d15104f3a930a3acebfeaa3088b11b9a"
    (hex (Blake2s.mac ~key msg))

let test_blake2_sized () =
  check Alcotest.string "blake2b-160" "70e8ece5e293e1bda064deef6b080edde357010f"
    (hex (Blake2b.digest_sized ~size:20 (Bytes.of_string "hello world")));
  check Alcotest.string "blake2s-128" "37deae0226c30da2ab424a7b8ee14e83"
    (hex (Blake2s.digest_sized ~size:16 (Bytes.of_string "hello world")))

let test_blake2_param_validation () =
  Alcotest.check_raises "blake2b size 0"
    (Invalid_argument "Blake2b: digest size out of range") (fun () ->
      ignore (Blake2b.digest_sized ~size:0 Bytes.empty));
  Alcotest.check_raises "blake2s size 33"
    (Invalid_argument "Blake2s: digest size out of range") (fun () ->
      ignore (Blake2s.digest_sized ~size:33 Bytes.empty));
  Alcotest.check_raises "blake2s long key"
    (Invalid_argument "Blake2s: key longer than 32 bytes") (fun () ->
      ignore (Blake2s.init_keyed ~key:(Bytes.make 33 'k') ~size:32))

(* Incremental absorption must equal one-shot digests for any chunking. *)
let incremental_property (module H : Digest_intf.S) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s incremental = one-shot" H.name)
    ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 1000)) (list_of_size Gen.(0 -- 8) (int_range 1 200)))
    (fun (input, cuts) ->
      let data = Bytes.of_string input in
      let ctx = H.init () in
      let pos = ref 0 in
      List.iter
        (fun size ->
          let len = min size (Bytes.length data - !pos) in
          if len > 0 then begin
            H.update ctx data ~pos:!pos ~len;
            pos := !pos + len
          end)
        cuts;
      if !pos < Bytes.length data then
        H.update ctx data ~pos:!pos ~len:(Bytes.length data - !pos);
      Bytes.equal (H.finalize ctx) (H.digest data))

(* The optimized compress functions (unsafe array/byte accesses, rotation
   tricks) must agree with the bounds-checked reference in Checked on every
   input. Lengths concentrate around the 64/128-byte block boundaries where
   padding and buffering edge cases live. *)
let equivalence_property name optimized checked =
  let boundary_lengths =
    QCheck.Gen.oneof
      [
        QCheck.Gen.int_range 0 300;
        (* +/- 2 around multiples of 64 up to 4 blocks of 128 *)
        QCheck.Gen.(
          map2
            (fun blocks delta -> max 0 ((blocks * 64) + delta))
            (int_range 0 8) (int_range (-2) 2));
        (* SHA-256's one-vs-two tail-block lengths: 55 bytes still fit the
           length field in the last block, 56 push it into another *)
        QCheck.Gen.oneofl [ 55; 56; 119; 120 ];
      ]
  in
  let arb =
    QCheck.make
      ~print:(fun s -> Printf.sprintf "%d bytes: %S" (String.length s) s)
      QCheck.Gen.(boundary_lengths >>= fun n -> string_size (return n))
  in
  QCheck.Test.make ~name:(name ^ " optimized = checked") ~count:300 arb
    (fun input ->
      let data = Bytes.of_string input in
      Bytes.equal (optimized data) (checked data))

let equivalence_tests =
  [
    equivalence_property "SHA-256" Sha256.digest Checked.sha256;
    equivalence_property "SHA-512" Sha512.digest Checked.sha512;
    equivalence_property "BLAKE2b" Blake2b.digest Checked.blake2b;
    equivalence_property "BLAKE2s" Blake2s.digest Checked.blake2s;
  ]

(* cross-check: this test IS the cross-check — unsafe_load* diffed against
   the bounds-checked load* on every offset *)
(* bounds: i ranges over 0..24 of a 32-byte buffer, so i+7 <= 31 *)
let test_unsafe_load_matches_checked () =
  let b = Bytes.init 32 (fun i -> Char.chr ((i * 37 + 5) land 0xFF)) in
  for i = 0 to 24 do
    check Alcotest.int "load32_be" (Bytesutil.load32_be b i)
      (Bytesutil.unsafe_load32_be b i);
    check Alcotest.int "load32_le" (Bytesutil.load32_le b i)
      (Bytesutil.unsafe_load32_le b i);
    check Alcotest.int64 "load64_be" (Bytesutil.load64_be b i)
      (Bytesutil.unsafe_load64_be b i);
    check Alcotest.int64 "load64_le" (Bytesutil.load64_le b i)
      (Bytesutil.unsafe_load64_le b i)
  done

let test_update_bounds () =
  let ctx = Sha256.init () in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Sha256.update: slice out of bounds") (fun () ->
      Sha256.update ctx (Bytes.create 4) ~pos:2 ~len:4)

(* --- HMAC (RFC 4231) ---------------------------------------------------------- *)

let test_hmac_vectors () =
  let case ~key ~msg = Hmac.Sha256.mac ~key:(Bytes.of_string key) (Bytes.of_string msg) in
  check Alcotest.string "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (case ~key:(String.make 20 '\x0b') ~msg:"Hi There"));
  check Alcotest.string "case 2 (short key)"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (case ~key:"Jefe" ~msg:"what do ya want for nothing?"));
  check Alcotest.string "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex (case ~key:(String.make 20 '\xaa') ~msg:(String.make 50 '\xdd')));
  check Alcotest.string "case 6 (key longer than block)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (case ~key:(String.make 131 '\xaa')
          ~msg:"Test Using Larger Than Block-Size Key - Hash Key First"));
  check Alcotest.string "sha512 case 1"
    "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cdedaa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
    (hex
       (Hmac.Sha512.mac
          ~key:(Bytes.of_string (String.make 20 '\x0b'))
          (Bytes.of_string "Hi There")))

let test_hmac_verify () =
  let key = Bytes.of_string "k" and msg = Bytes.of_string "m" in
  let tag = Hmac.Sha256.mac ~key msg in
  check Alcotest.bool "verify ok" true (Hmac.Sha256.verify ~key ~tag msg);
  check Alcotest.bool "verify bad msg" false
    (Hmac.Sha256.verify ~key ~tag (Bytes.of_string "x"));
  check Alcotest.bool "verify bad key" false
    (Hmac.Sha256.verify ~key:(Bytes.of_string "kk") ~tag msg)

let test_hmac_schedule_reuse () =
  let key = Bytes.of_string "schedule-key" in
  let sched = Hmac.Sha256.schedule ~key in
  let m1 = Bytes.of_string "first message" and m2 = Bytes.of_string "second" in
  check Alcotest.string "mac_with = mac" (hex (Hmac.Sha256.mac ~key m1))
    (hex (Hmac.Sha256.mac_with sched m1));
  (* The schedule must survive a finalize: this second use is exactly the
     "context dies after final" bug the schedule split fixes. *)
  check Alcotest.string "schedule survives finalize"
    (hex (Hmac.Sha256.mac ~key m2))
    (hex (Hmac.Sha256.mac_with sched m2));
  let ctx = Hmac.Sha256.init_with sched in
  Hmac.Sha256.update ctx m1 ~pos:0 ~len:5;
  Hmac.Sha256.update ctx m1 ~pos:5 ~len:(Bytes.length m1 - 5);
  check Alcotest.string "init_with incremental" (hex (Hmac.Sha256.mac ~key m1))
    (hex (Hmac.Sha256.finalize ctx));
  check Alcotest.bool "verify_with ok" true
    (Hmac.Sha256.verify_with sched ~tag:(Hmac.Sha256.mac ~key m1) m1)

let prop_hmac_incremental =
  QCheck.Test.make ~name:"HMAC incremental = one-shot" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 64)) (string_of_size Gen.(0 -- 500)))
    (fun (key, msg) ->
      let key = Bytes.of_string key and msg = Bytes.of_string msg in
      let ctx = Hmac.Sha256.init ~key in
      let half = Bytes.length msg / 2 in
      Hmac.Sha256.update ctx msg ~pos:0 ~len:half;
      Hmac.Sha256.update ctx msg ~pos:half ~len:(Bytes.length msg - half);
      Bytes.equal (Hmac.Sha256.finalize ctx) (Hmac.Sha256.mac ~key msg))

(* --- AES-128 / CMAC (FIPS 197, NIST SP 800-38B) ------------------------------------ *)

let test_aes_fips197 () =
  let key = Aes.expand_key (Bytesutil.of_hex "000102030405060708090a0b0c0d0e0f") in
  check Alcotest.string "fips-197 appendix C.1"
    "69c4e0d86a7b0430d8cdb78070b4c55a"
    (hex (Aes.encrypt_block key (Bytesutil.of_hex "00112233445566778899aabbccddeeff")))

let test_aes_validation () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes.expand_key: need 16 bytes")
    (fun () -> ignore (Aes.expand_key (Bytes.create 15)));
  let key = Aes.expand_key (Bytes.create 16) in
  Alcotest.check_raises "short block"
    (Invalid_argument "Aes.encrypt_block: need 16 bytes") (fun () ->
      ignore (Aes.encrypt_block key (Bytes.create 8)))

let cmac_key = "2b7e151628aed2a6abf7158809cf4f3c"

let test_cmac_sp800_38b () =
  let key = Bytesutil.of_hex cmac_key in
  let case msg_hex expected =
    check Alcotest.string expected expected
      (hex (Cmac.mac ~key (Bytesutil.of_hex msg_hex)))
  in
  case "" "bb1d6929e95937287fa37d129b756746";
  case "6bc1bee22e409f96e93d7e117393172a" "070a16b46b4d4144f79bdd9dd04a287c";
  (* 40 bytes: exercises the incomplete-final-block path over 3 blocks *)
  case
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411"
    "dfa66747de9ae63030ca32611497c827";
  (* 64 bytes: complete final block path *)
  case
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
    "51f0bebf7e3b9d92fc49741779363cfe"

let test_cmac_verify () =
  let key = Bytesutil.of_hex cmac_key in
  let msg = Bytes.of_string "measurement result" in
  let tag = Cmac.mac ~key msg in
  check Alcotest.bool "verify ok" true (Cmac.verify ~key ~tag msg);
  check Alcotest.bool "verify bad" false
    (Cmac.verify ~key ~tag (Bytes.of_string "measurement forged"))

(* Raw CBC-MAC's classic flaw: the *observed* tag(m) = E(m) lets anyone
   forge tag(m || (m xor tag)) without the key. Under CMAC the observed tag
   is E(m xor K1), so the same recipe built from what the attacker actually
   sees no longer predicts the forged message's tag. *)
let test_cbc_mac_length_extension () =
  let key = Bytesutil.of_hex cmac_key in
  let m = Bytes.of_string "0123456789abcdef" (* one full block *) in
  let raw_tag = Cmac.cbc_mac_raw ~key m in
  let forged_raw = Bytes.cat m (Bytesutil.xor m raw_tag) in
  check Alcotest.bytes "raw CBC-MAC forgery works" raw_tag
    (Cmac.cbc_mac_raw ~key forged_raw);
  let cmac_tag = Cmac.mac ~key m in
  let forged_cmac = Bytes.cat m (Bytesutil.xor m cmac_tag) in
  check Alcotest.bool "same recipe fails against CMAC" false
    (Bytes.equal cmac_tag (Cmac.mac ~key forged_cmac))

(* --- HKDF (RFC 5869) -------------------------------------------------------------- *)

let test_hkdf_rfc5869_case1 () =
  let ikm = Bytes.make 22 '\x0b' in
  let salt = Bytesutil.of_hex "000102030405060708090a0b0c" in
  let info = Bytesutil.of_hex "f0f1f2f3f4f5f6f7f8f9" in
  let prk = Hkdf.extract ~salt ~ikm () in
  check Alcotest.string "prk"
    "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    (hex prk);
  check Alcotest.string "okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (hex (Hkdf.expand ~prk ~info ~length:42));
  check Alcotest.string "okm (expand_with)"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (hex (Hkdf.expand_with (Hmac.Sha256.schedule ~key:prk) ~info ~length:42))

let test_hkdf_rfc5869_case2 () =
  let ikm = Bytes.init 80 (fun i -> Char.chr i) in
  let salt = Bytes.init 80 (fun i -> Char.chr (0x60 + i)) in
  let info = Bytes.init 80 (fun i -> Char.chr (0xb0 + i)) in
  check Alcotest.string "okm (multi-block expand)"
    "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71cc30c58179ec3e87c14c01d5c1f3434f1d87"
    (hex (Hkdf.derive ~salt ~ikm ~info ~length:82 ()))

let test_hkdf_rfc5869_case3 () =
  let ikm = Bytes.make 22 '\x0b' in
  check Alcotest.string "okm (default salt, empty info)"
    "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
    (hex (Hkdf.derive ~ikm ~info:Bytes.empty ~length:42 ()))

let test_hkdf_validation () =
  let prk = Hkdf.extract ~ikm:(Bytes.of_string "x") () in
  Alcotest.check_raises "zero length" (Invalid_argument "Hkdf.expand: length out of range")
    (fun () -> ignore (Hkdf.expand ~prk ~info:Bytes.empty ~length:0));
  Alcotest.check_raises "too long" (Invalid_argument "Hkdf.expand: length out of range")
    (fun () -> ignore (Hkdf.expand ~prk ~info:Bytes.empty ~length:(255 * 32 + 1)))

let test_hkdf_info_separation () =
  let ikm = Bytes.of_string "master" in
  let a = Hkdf.derive ~ikm ~info:(Bytes.of_string "device-a") ~length:32 () in
  let b = Hkdf.derive ~ikm ~info:(Bytes.of_string "device-b") ~length:32 () in
  check Alcotest.bool "different info, different keys" false (Bytes.equal a b)

(* --- Algo / Mac_stream ---------------------------------------------------------- *)

let test_algo_names () =
  List.iter
    (fun h ->
      match Algo.hash_of_name (Algo.hash_name h) with
      | Some h' -> check Alcotest.bool "roundtrip" true (h = h')
      | None -> Alcotest.failf "name roundtrip failed for %s" (Algo.hash_name h))
    Algo.all_hashes;
  check Alcotest.bool "case-insensitive" true (Algo.hash_of_name "sha256" = Some Algo.SHA_256);
  check Alcotest.bool "unknown" true (Algo.hash_of_name "md5" = None)

let test_algo_digest_sizes () =
  check Alcotest.int "sha256" 32 (Algo.digest_size Algo.SHA_256);
  check Alcotest.int "sha512" 64 (Algo.digest_size Algo.SHA_512);
  check Alcotest.int "blake2b" 64 (Algo.digest_size Algo.BLAKE2b);
  check Alcotest.int "blake2s" 32 (Algo.digest_size Algo.BLAKE2s)

let test_mac_stream_matches_oneshot () =
  let key = Bytes.of_string "stream-key" in
  let msg = Bytes.of_string "stream-message-payload" in
  List.iter
    (fun hash ->
      let t = Mac_stream.create hash ~key in
      Mac_stream.update t msg;
      let streamed = Mac_stream.finalize t in
      check Alcotest.bytes (Algo.hash_name hash) (Algo.hmac hash ~key msg) streamed)
    Algo.all_hashes

let test_mac_stream_update_sub () =
  let key = Bytes.of_string "k" in
  let msg = Bytes.of_string "0123456789" in
  let t = Mac_stream.create Algo.SHA_256 ~key in
  Mac_stream.update_sub t msg ~pos:0 ~len:4;
  Mac_stream.update_sub t msg ~pos:4 ~len:6;
  check Alcotest.bytes "chunked" (Mac_stream.mac Algo.SHA_256 ~key msg) (Mac_stream.finalize t)

let test_keys_differ () =
  let msg = Bytes.of_string "same message" in
  List.iter
    (fun hash ->
      let a = Algo.hmac hash ~key:(Bytes.of_string "key-a") msg in
      let b = Algo.hmac hash ~key:(Bytes.of_string "key-b") msg in
      check Alcotest.bool (Algo.hash_name hash ^ " key separation") false (Bytes.equal a b))
    Algo.all_hashes

let () =
  Alcotest.run "ra_crypto"
    [
      ( "bytesutil",
        [
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "xor" `Quick test_xor;
          Alcotest.test_case "constant-time equal" `Quick test_constant_time_equal;
          qtest prop_load_store_roundtrip;
        ] );
      ("vectors", vector_tests);
      ( "blake2 modes",
        [
          Alcotest.test_case "keyed" `Quick test_blake2_keyed;
          Alcotest.test_case "sized" `Quick test_blake2_sized;
          Alcotest.test_case "parameter validation" `Quick test_blake2_param_validation;
        ] );
      ( "optimized vs checked",
        Alcotest.test_case "unsafe loads" `Quick test_unsafe_load_matches_checked
        :: List.map qtest equivalence_tests );
      ( "incremental",
        [
          qtest (incremental_property (module Sha256));
          qtest (incremental_property (module Sha512));
          qtest (incremental_property (module Blake2b));
          qtest (incremental_property (module Blake2s));
          Alcotest.test_case "bounds" `Quick test_update_bounds;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 vectors" `Quick test_hmac_vectors;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "schedule reuse" `Quick test_hmac_schedule_reuse;
          qtest prop_hmac_incremental;
        ] );
      ( "aes/cmac",
        [
          Alcotest.test_case "fips-197" `Quick test_aes_fips197;
          Alcotest.test_case "validation" `Quick test_aes_validation;
          Alcotest.test_case "sp800-38b vectors" `Quick test_cmac_sp800_38b;
          Alcotest.test_case "verify" `Quick test_cmac_verify;
          Alcotest.test_case "cbc-mac length extension" `Quick
            test_cbc_mac_length_extension;
        ] );
      ( "hkdf",
        [
          Alcotest.test_case "rfc5869 case 1" `Quick test_hkdf_rfc5869_case1;
          Alcotest.test_case "rfc5869 case 2" `Quick test_hkdf_rfc5869_case2;
          Alcotest.test_case "rfc5869 case 3" `Quick test_hkdf_rfc5869_case3;
          Alcotest.test_case "validation" `Quick test_hkdf_validation;
          Alcotest.test_case "info separation" `Quick test_hkdf_info_separation;
        ] );
      ( "algo",
        [
          Alcotest.test_case "names" `Quick test_algo_names;
          Alcotest.test_case "digest sizes" `Quick test_algo_digest_sizes;
          Alcotest.test_case "mac stream one-shot" `Quick test_mac_stream_matches_oneshot;
          Alcotest.test_case "mac stream chunks" `Quick test_mac_stream_update_sub;
          Alcotest.test_case "key separation" `Quick test_keys_differ;
        ] );
    ]
