open Ra_sim

type t = {
  scheme_name : string;
  hash : Ra_crypto.Algo.hash;
  nonce : Bytes.t;
  order : int array;
  mac : Bytes.t;
  data_copy : (int * Bytes.t) list;
  t_start : Timebase.t;
  t_end : Timebase.t;
  t_release : Timebase.t;
  signature : Ra_device.Cost_model.signature_alg option;
  counter : int option;
}

(* --- wire format --------------------------------------------------------- *)

let magic = "RARPT1"

let hash_id = function
  | Ra_crypto.Algo.SHA_256 -> 0
  | Ra_crypto.Algo.SHA_512 -> 1
  | Ra_crypto.Algo.BLAKE2b -> 2
  | Ra_crypto.Algo.BLAKE2s -> 3

let hash_of_id = function
  | 0 -> Some Ra_crypto.Algo.SHA_256
  | 1 -> Some Ra_crypto.Algo.SHA_512
  | 2 -> Some Ra_crypto.Algo.BLAKE2b
  | 3 -> Some Ra_crypto.Algo.BLAKE2s
  | _ -> None

let signature_id = function
  | Ra_device.Cost_model.RSA_1024 -> 0
  | Ra_device.Cost_model.RSA_2048 -> 1
  | Ra_device.Cost_model.RSA_4096 -> 2
  | Ra_device.Cost_model.ECDSA_160 -> 3
  | Ra_device.Cost_model.ECDSA_224 -> 4
  | Ra_device.Cost_model.ECDSA_256 -> 5

let signature_of_id = function
  | 0 -> Some Ra_device.Cost_model.RSA_1024
  | 1 -> Some Ra_device.Cost_model.RSA_2048
  | 2 -> Some Ra_device.Cost_model.RSA_4096
  | 3 -> Some Ra_device.Cost_model.ECDSA_160
  | 4 -> Some Ra_device.Cost_model.ECDSA_224
  | 5 -> Some Ra_device.Cost_model.ECDSA_256
  | _ -> None

let encode t =
  let buf = Buffer.create 256 in
  let u8 v = Buffer.add_char buf (Char.chr (v land 0xff)) in
  let u16 v =
    u8 (v lsr 8);
    u8 v
  in
  let u32 v =
    u16 (v lsr 16);
    u16 v
  in
  let u64 v =
    u32 (v lsr 32);
    u32 v
  in
  let bytes_field b =
    u16 (Bytes.length b);
    Buffer.add_bytes buf b
  in
  Buffer.add_string buf magic;
  u8 (hash_id t.hash);
  let name = Bytes.of_string t.scheme_name in
  u8 (Bytes.length name);
  Buffer.add_bytes buf name;
  bytes_field t.nonce;
  (match t.counter with
  | None -> u8 0
  | Some c ->
    u8 1;
    u64 c);
  u32 (Array.length t.order);
  Array.iter u32 t.order;
  bytes_field t.mac;
  u16 (List.length t.data_copy);
  List.iter
    (fun (block, content) ->
      u32 block;
      u32 (Bytes.length content);
      Buffer.add_bytes buf content)
    t.data_copy;
  u64 t.t_start;
  u64 t.t_end;
  u64 t.t_release;
  (match t.signature with
  | None -> u8 0
  | Some alg ->
    u8 1;
    u8 (signature_id alg));
  Buffer.to_bytes buf

exception Malformed of string

let decode input =
  let pos = ref 0 in
  let len = Bytes.length input in
  let need n what =
    if !pos + n > len then raise (Malformed (Printf.sprintf "truncated at %s" what))
  in
  let u8 what =
    need 1 what;
    let v = Char.code (Bytes.get input !pos) in
    incr pos;
    v
  in
  (* explicit sequencing: operand evaluation order is unspecified *)
  let u16 what =
    let hi = u8 what in
    let lo = u8 what in
    (hi lsl 8) lor lo
  in
  let u32 what =
    let hi = u16 what in
    let lo = u16 what in
    (hi lsl 16) lor lo
  in
  let u64 what =
    let hi = u32 what in
    let lo = u32 what in
    (hi lsl 32) lor lo
  in
  let raw n what =
    need n what;
    let b = Bytes.sub input !pos n in
    pos := !pos + n;
    b
  in
  let bytes_field what = raw (u16 what) what in
  try
    if not (Bytes.equal (raw (String.length magic) "magic") (Bytes.of_string magic))
    then Error "bad magic"
    else begin
      let hash =
        match hash_of_id (u8 "hash id") with
        | Some h -> h
        | None -> raise (Malformed "unknown hash id")
      in
      let scheme_name = Bytes.to_string (raw (u8 "scheme name length") "scheme name") in
      let nonce = bytes_field "nonce" in
      let counter =
        match u8 "counter flag" with
        | 0 -> None
        | 1 -> Some (u64 "counter")
        | _ -> raise (Malformed "bad counter flag")
      in
      let order_len = u32 "order length" in
      if order_len > 1_000_000 then raise (Malformed "implausible order length");
      let order = Array.init order_len (fun _ -> u32 "order entry") in
      let mac = bytes_field "mac" in
      let copies = u16 "data copy count" in
      let data_copy =
        List.init copies (fun _ ->
            let block = u32 "data copy block" in
            let size = u32 "data copy size" in
            if size > 16_777_216 then raise (Malformed "implausible data copy size");
            (block, raw size "data copy content"))
      in
      let t_start = u64 "t_start" in
      let t_end = u64 "t_end" in
      let t_release = u64 "t_release" in
      let signature =
        match u8 "signature flag" with
        | 0 -> None
        | 1 -> (
          match signature_of_id (u8 "signature id") with
          | Some alg -> Some alg
          | None -> raise (Malformed "unknown signature id"))
        | _ -> raise (Malformed "bad signature flag")
      in
      if !pos <> len then Error "trailing bytes"
      else
        Ok
          {
            scheme_name;
            hash;
            nonce;
            order;
            mac;
            data_copy;
            t_start;
            t_end;
            t_release;
            signature;
            counter;
          }
    end
  with Malformed reason -> Error reason
