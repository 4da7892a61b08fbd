open Glassdb_util

type key = string
type value = string
type version = int
type txn_id = string

let txn_id ~client ~seq = Printf.sprintf "t%d.%d" client seq

type rw_set = {
  reads : (key * version) list;
  writes : (key * value) list;
}

let shard_of_key ~shards key =
  if shards <= 0 then invalid_arg "Kv.shard_of_key";
  (* Cheap stable hash; must not depend on OCaml's polymorphic hash so that
     runs are reproducible across compiler versions. *)
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) key;
  !h mod shards

let encode_writes buf writes =
  Codec.write_list buf
    (fun b (k, v) ->
      Codec.write_string b k;
      Codec.write_string b v)
    writes

let decode_writes r =
  Codec.read_list r (fun r ->
      let k = Codec.read_string r in
      let v = Codec.read_string r in
      (k, v))

(* A read of an absent key records version -1.  It is written as the
   two-byte varint of 0, a non-canonical form that [Codec.write_varint]
   never emits, so every version >= 0 keeps its canonical bytes. *)
let absent_version = "\x80\x00"

let write_version b v =
  if Int.equal v (-1) then Buffer.add_string b absent_version
  else Codec.write_varint b v

let read_version r =
  if Codec.skip_prefix r absent_version then -1 else Codec.read_varint r

let encode_rw_set buf rw =
  Codec.write_list buf
    (fun b (k, v) ->
      Codec.write_string b k;
      write_version b v)
    rw.reads;
  encode_writes buf rw.writes

let decode_rw_set r =
  let reads =
    Codec.read_list r (fun r ->
        let k = Codec.read_string r in
        let v = read_version r in
        (k, v))
  in
  let writes = decode_writes r in
  { reads; writes }

let encode_entry tid writes =
  Codec.to_string
    (fun buf () ->
      Codec.write_string buf tid;
      encode_writes buf writes)
    ()

let entry_writes entry =
  match
    Codec.of_string
      (fun r ->
        ignore (Codec.read_string r);
        decode_writes r)
      entry
  with
  | writes -> Some writes
  | exception _ -> None

type signed_txn = {
  tid : txn_id;
  client : int;
  rw : rw_set;
  signature : string;
}

let payload_bytes ~tid ~client rw =
  Codec.to_string
    (fun buf () ->
      Codec.write_string buf tid;
      Codec.write_varint buf client;
      encode_rw_set buf rw)
    ()

let sign ~sk ~tid ~client rw =
  { tid; client; rw;
    signature = Sha256.hmac ~key:sk (payload_bytes ~tid ~client rw) }

let verify_signature ~pk t =
  String.equal t.signature
    (Sha256.hmac ~key:pk (payload_bytes ~tid:t.tid ~client:t.client t.rw))

let encode_signed_txn buf t =
  Codec.write_string buf t.tid;
  Codec.write_varint buf t.client;
  encode_rw_set buf t.rw;
  Codec.write_string buf t.signature

let decode_signed_txn r =
  let tid = Codec.read_string r in
  let client = Codec.read_varint r in
  let rw = decode_rw_set r in
  let signature = Codec.read_string r in
  { tid; client; rw; signature }

let signed_txn_bytes t = String.length (Codec.to_string encode_signed_txn t)
