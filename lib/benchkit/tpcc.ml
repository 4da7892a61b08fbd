open Glassdb_util

type config = {
  warehouses : int;
  districts : int;
  customers : int;
  items : int;
}

let default_config = { warehouses = 4; districts = 4; customers = 20; items = 100 }

(* --- key schema: <ColumnName_PrimaryKey, FieldValue> --- *)

let k_w_ytd w = Printf.sprintf "w_ytd_%d" w
let k_w_name w = Printf.sprintf "w_name_%d" w
let k_d_ytd w d = Printf.sprintf "d_ytd_%d_%d" w d
let k_d_next_oid w d = Printf.sprintf "d_next_o_id_%d_%d" w d
let k_d_delivered w d = Printf.sprintf "d_delivered_o_id_%d_%d" w d
let k_c_balance w d c = Printf.sprintf "c_balance_%d_%d_%d" w d c
let k_c_name w d c = Printf.sprintf "c_name_%d_%d_%d" w d c
(* c_first, c_middle, c_last combined, per Section 5.5's optimization. *)
let k_c_last_order w d c = Printf.sprintf "c_last_o_id_%d_%d_%d" w d c
let k_i_price i = Printf.sprintf "i_price_%d" i
let k_s_qty w i = Printf.sprintf "s_quantity_%d_%d" w i
let k_s_ytd w i = Printf.sprintf "s_ytd_%d_%d" w i
let k_o_info w d o = Printf.sprintf "o_info_%d_%d_%d" w d o
(* customer id + carrier + line count, comma separated *)
let k_ol w d o l = Printf.sprintf "ol_%d_%d_%d_%d" w d o l

let money cents = string_of_int cents
let int_of_value v = try int_of_string v with _ -> 0

(* --- loading --- *)

let load client cfg =
  let puts = ref [] in
  let put k v = puts := (k, v) :: !puts in
  for w = 0 to cfg.warehouses - 1 do
    put (k_w_ytd w) (money 30000);
    put (k_w_name w) (Printf.sprintf "warehouse-%d" w);
    for d = 0 to cfg.districts - 1 do
      put (k_d_ytd w d) (money 3000);
      put (k_d_next_oid w d) "1";
      put (k_d_delivered w d) "0";
      for c = 0 to cfg.customers - 1 do
        put (k_c_balance w d c) (money (-1000));
        put (k_c_name w d c) (Printf.sprintf "OE,BAR,Customer%d" c);
        put (k_c_last_order w d c) "0"
      done
    done;
    for i = 0 to cfg.items - 1 do
      put (k_s_qty w i) "50";
      put (k_s_ytd w i) "0"
    done
  done;
  for i = 0 to cfg.items - 1 do
    put (k_i_price i) (money (100 + (i mod 900)))
  done;
  (* Insert in batches through ordinary transactions. *)
  let rec chunks l =
    match l with
    | [] -> []
    | _ ->
      let rec take n acc = function
        | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let batch, rest = take 100 [] l in
      batch :: chunks rest
  in
  List.iter
    (fun batch ->
      match
        client.System.c_execute (fun ctx ->
            List.iter (fun (k, v) -> ctx.System.tput k v) batch)
      with
      | Ok () -> ()
      | Error e -> failwith ("tpcc load failed: " ^ Error.to_string e))
    (chunks (List.rev !puts))

(* --- transactions --- *)

type txn_kind =
  | New_order
  | Payment
  | Order_status
  | Delivery
  | Stock_level
  | Warehouse_balance

let kind_name = function
  | New_order -> "new-order"
  | Payment -> "payment"
  | Order_status -> "order-status"
  | Delivery -> "delivery"
  | Stock_level -> "stock-level"
  | Warehouse_balance -> "wh-balance"

let all_kinds =
  [ New_order; Payment; Order_status; Delivery; Stock_level; Warehouse_balance ]

let pick_kind rng =
  let r = Rng.int_below rng 100 in
  if r < 42 then New_order
  else if r < 84 then Payment
  else if r < 88 then Order_status
  else if r < 92 then Delivery
  else if r < 96 then Stock_level
  else Warehouse_balance

let pick_wdc rng cfg =
  ( Rng.int_below rng cfg.warehouses,
    Rng.int_below rng cfg.districts,
    Rng.int_below rng cfg.customers )

let geti ctx k = int_of_value (Option.value ~default:"0" (ctx.System.tget k))

let new_order client rng cfg =
  let w, d, c = pick_wdc rng cfg in
  let n_lines = 5 + Rng.int_below rng 11 in
  let item_ids =
    (* Distinct items per order. *)
    let seen = Hashtbl.create n_lines in
    let rec fresh tries =
      let i = Rng.int_below rng cfg.items in
      if Hashtbl.mem seen i && tries < 20 then fresh (tries + 1)
      else begin
        Hashtbl.replace seen i ();
        i
      end
    in
    List.init n_lines (fun _ -> fresh 0)
  in
  client.System.c_execute_verified (fun ctx ->
      let o_id = geti ctx (k_d_next_oid w d) in
      ctx.System.tput (k_d_next_oid w d) (string_of_int (o_id + 1));
      ctx.System.tput (k_o_info w d o_id)
        (Printf.sprintf "%d,none,%d" c n_lines);
      ctx.System.tput (k_c_last_order w d c) (string_of_int o_id);
      List.iteri
        (fun l i ->
          let price = geti ctx (k_i_price i) in
          let qty = geti ctx (k_s_qty w i) in
          let order_qty = 1 + Rng.int_below rng 10 in
          let new_qty =
            if qty - order_qty >= 10 then qty - order_qty
            else qty - order_qty + 91
          in
          ctx.System.tput (k_s_qty w i) (string_of_int new_qty);
          ctx.System.tput (k_ol w d o_id l)
            (Printf.sprintf "%d,%d,%d" i order_qty (price * order_qty)))
        item_ids)

let payment client rng cfg =
  let w, d, c = pick_wdc rng cfg in
  let amount = 100 + Rng.int_below rng 5000 in
  client.System.c_execute_verified (fun ctx ->
      let w_ytd = geti ctx (k_w_ytd w) in
      ctx.System.tput (k_w_ytd w) (string_of_int (w_ytd + amount));
      let d_ytd = geti ctx (k_d_ytd w d) in
      ctx.System.tput (k_d_ytd w d) (string_of_int (d_ytd + amount));
      let bal = geti ctx (k_c_balance w d c) in
      ctx.System.tput (k_c_balance w d c) (string_of_int (bal - amount)))

let order_status client rng cfg =
  let w, d, c = pick_wdc rng cfg in
  client.System.c_execute_verified (fun ctx ->
      ignore (ctx.System.tget (k_c_name w d c));
      ignore (ctx.System.tget (k_c_balance w d c));
      let o_id = geti ctx (k_c_last_order w d c) in
      if o_id > 0 then begin
        match ctx.System.tget (k_o_info w d o_id) with
        | None -> ()
        | Some info ->
          let n_lines =
            match String.split_on_char ',' info with
            | [ _; _; n ] -> int_of_value n
            | _ -> 0
          in
          for l = 0 to min (n_lines - 1) 4 do
            ignore (ctx.System.tget (k_ol w d o_id l))
          done
      end)

let delivery client rng cfg =
  let w = Rng.int_below rng cfg.warehouses in
  let carrier = 1 + Rng.int_below rng 10 in
  client.System.c_execute_verified (fun ctx ->
      (* Deliver the oldest undelivered order of up to three districts. *)
      for d = 0 to min (cfg.districts - 1) 2 do
        let delivered = geti ctx (k_d_delivered w d) in
        let next = geti ctx (k_d_next_oid w d) in
        let o_id = delivered + 1 in
        if o_id < next then begin
          match ctx.System.tget (k_o_info w d o_id) with
          | None -> ()
          | Some info ->
            (match String.split_on_char ',' info with
             | [ c; _; n ] ->
               ctx.System.tput (k_o_info w d o_id)
                 (Printf.sprintf "%s,%d,%s" c carrier n);
               ctx.System.tput (k_d_delivered w d) (string_of_int o_id);
               let cust = int_of_value c in
               let bal = geti ctx (k_c_balance w d cust) in
               ctx.System.tput (k_c_balance w d cust)
                 (string_of_int (bal + 100))
             | _ -> ())
        end
      done)

let stock_level client rng cfg =
  let w = Rng.int_below rng cfg.warehouses in
  let d = Rng.int_below rng cfg.districts in
  let threshold = 10 + Rng.int_below rng 11 in
  client.System.c_execute_verified (fun ctx ->
      let next = geti ctx (k_d_next_oid w d) in
      let low = ref 0 in
      (* Scan the order lines of the last (up to) five orders. *)
      for o_id = max 1 (next - 5) to next - 1 do
        match ctx.System.tget (k_o_info w d o_id) with
        | None -> ()
        | Some info ->
          let n_lines =
            match String.split_on_char ',' info with
            | [ _; _; n ] -> int_of_value n
            | _ -> 0
          in
          for l = 0 to min (n_lines - 1) 4 do
            match ctx.System.tget (k_ol w d o_id l) with
            | None -> ()
            | Some line ->
              (match String.split_on_char ',' line with
               | i :: _ ->
                 if geti ctx (k_s_qty w (int_of_value i)) < threshold then
                   incr low
               | [] -> ())
          done
      done)

let warehouse_balance client rng cfg =
  (* VerifiedWarehouseBalance: the last 10 versions of w_ytd. *)
  let w = Rng.int_below rng cfg.warehouses in
  match client.System.c_history (k_w_ytd w) ~n:10 with
  | Error e -> Error e
  | Ok versions when versions >= 1 -> Ok ()
  | Ok _ ->
    (* Systems without history walks fall back to a verified read. *)
    (match client.System.c_verified_get_latest (k_w_ytd w) with
     | Ok _ -> Ok ()
     | Error e -> Error e)

let run_txn client rng cfg kind =
  match kind with
  | New_order -> new_order client rng cfg
  | Payment -> payment client rng cfg
  | Order_status -> order_status client rng cfg
  | Delivery -> delivery client rng cfg
  | Stock_level -> stock_level client rng cfg
  | Warehouse_balance -> warehouse_balance client rng cfg
