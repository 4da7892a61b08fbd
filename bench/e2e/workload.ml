(* The four benchmark workloads and their seeded inputs.

   Every input a run needs — the initial records, the history-building
   transactions and each client's op array — is generated here, once,
   before anything is timed.  The timed loops only walk these arrays, so
   no Zipf table or value string is built inside a measured window (the
   [generations] counter lets the harness check that). *)

open Glassdb_util
module Kv = Txnkit.Kv

type op =
  | Put of Kv.key * Kv.value  (** VerifiedPut *)
  | Get of Kv.key  (** VerifiedGetLatest *)
  | Get_at of Kv.key * int
      (** VerifiedGetAt, the given number of blocks behind the client's
          cached head for the key's shard *)
  | Txn of (Kv.key * Kv.value) list * Kv.key list
      (** unverified transaction: its writes, then its reads *)

type kind = Verified_hot | Txn_write | Verified_history | Audit_tail

type spec = {
  name : string;
  kind : kind;
  keys : int;
  theta : float;  (** Zipf skew; 0 = uniform *)
  clients : int;
  ops_per_client : int;  (** per 10 s of requested run time *)
  history_blocks : int;  (** blocks pre-built on every shard during set-up *)
  auditors : int;  (** auditors tailing the ledger during the timed window *)
}

(* Values are 32-96 bytes (mean 64), drawn per write. *)
let value rng = Rng.alphanum rng (32 + Rng.int_below rng 65)

(* Every workload runs on 4 shards with the library's default config. *)
let shards = 4

(* Sizes are for the default 10 s: on a 2-core host the three set-ups and
   the timed window then take 8-13 s, and the heap stays under ~450 MB.
   Memory limits the write-heavy windows: the node store keeps every
   version. *)
let specs =
  [ { name = "verified-hot";
      kind = Verified_hot;
      keys = 20_000;
      theta = 0.9;
      clients = 8;
      ops_per_client = 750;
      history_blocks = 0;
      auditors = 0 };
    { name = "txn-write";
      kind = Txn_write;
      keys = 20_000;
      theta = 0.;
      clients = 8;
      ops_per_client = 750;
      history_blocks = 0;
      auditors = 0 };
    { name = "verified-history";
      kind = Verified_history;
      keys = 30_000;
      theta = 0.;
      clients = 8;
      ops_per_client = 325;
      history_blocks = 64;
      auditors = 0 };
    { name = "audit-tail";
      kind = Audit_tail;
      keys = 20_000;
      theta = 0.;
      clients = 8;
      ops_per_client = 500;
      history_blocks = 0;
      auditors = 1 } ]

let find name = List.find_opt (fun s -> String.equal s.name name) specs

(* Tiny sizes for the smoke test: same code paths, well under a second
   per workload. *)
let shrink s =
  { s with
    keys = 600;
    clients = 4;
    ops_per_client = 12;
    history_blocks = min s.history_blocks 6 }

type inputs = {
  spec : spec;
  load : (Kv.key * Kv.value) array;  (** initial records *)
  history : (Kv.key * Kv.value) list array;
      (** one transaction per pre-built block, touching every shard *)
  ops : op array array;  (** per client, in issue order *)
}

let key_of i = Printf.sprintf "user%08d" i

let generations = ref 0

(* The stored data set (initial records and pre-built history) is the
   same for every seed: POS-tree chunk boundaries depend on content, so a
   per-seed data set would shift tree shape, proof sizes and storage
   between runs.  The seed drives the traffic. *)
let dataset_seed = 0x61a55db

let make ?(seconds = 10.) spec ~seed =
  incr generations;
  let ops_per_client =
    max 1 (int_of_float (Float.round (float_of_int spec.ops_per_client *. seconds /. 10.)))
  in
  let data = Rng.create dataset_seed in
  let load = Array.init spec.keys (fun i -> (key_of i, value data)) in
  let history =
    Array.init spec.history_blocks (fun _ ->
        (* Eight fresh keys per shard, so every shard gets a block. *)
        let seen = Hashtbl.create 64 in
        List.concat_map
          (fun shard ->
            List.init 8 (fun _ ->
                let rec pick () =
                  let k = key_of (Rng.int_below data spec.keys) in
                  if Hashtbl.mem seen k
                     || Kv.shard_of_key ~shards k <> shard
                  then pick ()
                  else begin
                    Hashtbl.replace seen k ();
                    k
                  end
                in
                let k = pick () in
                (k, value data)))
          (List.init shards Fun.id))
  in
  let zipf =
    if spec.theta > 0. then Some (Zipf.create ~n:spec.keys ~theta:spec.theta)
    else None
  in
  let draw rng =
    match zipf with
    | Some z -> Zipf.scrambled rng z
    | None -> Rng.int_below rng spec.keys
  in
  let txn rng =
    (* Ten distinct keys: five writes, then five reads (YCSB-B). *)
    let seen = Hashtbl.create 16 in
    let rec fresh () =
      let k = draw rng in
      if Hashtbl.mem seen k then fresh ()
      else begin
        Hashtbl.replace seen k ();
        key_of k
      end
    in
    let writes = List.init 5 (fun _ -> let k = fresh () in (k, value rng)) in
    Txn (writes, List.init 5 (fun _ -> fresh ()))
  in
  (* Each client's mix is exact — a fixed multiset of op kinds (and of
     get-at depths 1..64), shuffled — so the seed changes keys and order,
     not the proportions. *)
  let client rng =
    let n = ops_per_client in
    let kinds =
      match spec.kind with
      | Txn_write | Audit_tail -> Array.make n `Txn
      | Verified_hot -> Array.init n (fun i -> if i < n / 2 then `Put else `Get)
      | Verified_history ->
        Array.init n (fun i ->
            if i < n / 5 then `Put
            else if i < 3 * n / 5 then `Get
            else `Get_at (1 + (i mod 64)))
    in
    Rng.shuffle rng kinds;
    Array.map
      (fun kind ->
        match kind with
        | `Txn -> txn rng
        | `Put -> let k = key_of (draw rng) in Put (k, value rng)
        | `Get -> Get (key_of (draw rng))
        | `Get_at behind -> Get_at (key_of (draw rng), behind))
      kinds
  in
  let ops = Array.map client (Rng.split_n (Rng.create seed) spec.clients) in
  { spec = { spec with ops_per_client }; load; history; ops }

(* Canonical byte encoding of the generated inputs, for the determinism
   check (same seed, byte-identical op streams). *)
let encode inputs =
  let b = Buffer.create 4096 in
  let kv (k, v) = Printf.bprintf b "%s=%s;" k v in
  Array.iter kv inputs.load;
  Array.iter (List.iter kv) inputs.history;
  Array.iteri
    (fun c ops ->
      Printf.bprintf b "|client%d|" c;
      Array.iter
        (function
          | Put (k, v) -> Printf.bprintf b "P:%s=%s;" k v
          | Get k -> Printf.bprintf b "G:%s;" k
          | Get_at (k, n) -> Printf.bprintf b "A:%s@%d;" k n
          | Txn (ws, rs) ->
            Buffer.add_string b "T:";
            List.iter kv ws;
            List.iter (Printf.bprintf b "r%s;") rs)
        ops)
    inputs.ops;
  Buffer.contents b
