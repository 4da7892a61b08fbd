(* Audit trail: historical verified reads and tamper detection.

   A hospital stores medication records; a regulator later asks "what did
   this record say at the time of the incident?" — answered with a
   VerifiedGetAt carrying an inclusion proof for a historical block plus an
   append-only proof linking it to the present.  The example then shows the
   flip side: when a malicious server slips in an unauthorized change, the
   auditor's block re-execution flags it.

   Run with:  dune exec examples/audit_trail.exe *)

module Cluster = Glassdb.Cluster
module Client = Glassdb.Client
module Auditor = Glassdb.Auditor
module Node = Glassdb.Node
module Ledger = Glassdb.Ledger
module Kv = Txnkit.Kv

let record = "patient-0042/dosage"

let () =
  Sim.run (fun () ->
      let cluster = Cluster.create (Glassdb.Config.make ~shards:2 ()) in
      Cluster.start cluster;
      let doctor = Client.create cluster ~id:1 ~sk:"dr-key" in
      let auditor = Auditor.create cluster ~id:0 in
      Auditor.register_client auditor ~client:1 ~pk:"dr-key";

      (* The dosage changes over time; each change is a signed txn. *)
      List.iter
        (fun dose ->
          (match Client.execute doctor (fun t -> Client.put t record dose) with
           | Ok _ -> ()
           | Error e -> failwith (Glassdb_util.Error.to_string e));
          Sim.sleep 0.2)
        [ "10mg"; "20mg"; "15mg" ];
      Sim.sleep 0.3;

      (* Full version history via the prev-block pointers in the ledger. *)
      let history =
        match Client.get_history doctor record ~n:10 with
        | Ok history -> history
        | Error e -> failwith (Glassdb_util.Error.to_string e)
      in
      print_endline "version history (newest first):";
      List.iter
        (fun (v, block) -> Printf.printf "  block %d: %s\n" block v)
        history;

      (* A verified historical read at the oldest version's block. *)
      (match List.rev history with
       | (oldest, block) :: _ ->
         (match Client.verified_get_at doctor record ~block with
          | Ok (Some v, check) ->
            Printf.printf
              "verified read at block %d: %s (expected %s) proof=%s\n" block v
              oldest
              (if check.Client.v_ok then "OK" else "FAILED")
          | Ok (None, _) -> print_endline "missing at that block?"
          | Error e ->
            Printf.printf "historical read failed: %s\n"
              (Glassdb_util.Error.to_string e))
       | [] -> print_endline "no history?");

      (* Baseline audit of the honest history. *)
      let ok_before =
        List.for_all (fun r -> r.Auditor.ar_ok) (Auditor.audit_all auditor)
      in
      Printf.printf "audit before tampering: %s\n"
        (if ok_before then "clean" else "violation");

      (* A malicious insider at the server commits an unauthorized change,
         forging a transaction with a key the auditor does not know. *)
      let shard = Cluster.shard_of_key cluster record in
      let node = Cluster.node cluster shard in
      let forged =
        Kv.sign ~sk:"insider" ~tid:"evil-1" ~client:666
          { Kv.reads = []; writes = [ (record, "500mg") ] }
      in
      (match Node.prepare node ~rw:forged.Kv.rw forged with
       | Txnkit.Occ.Ok -> ignore (Node.commit node "evil-1")
       | Txnkit.Occ.Conflict _ -> ());
      Sim.sleep 0.3;

      let reports = Auditor.audit_all auditor in
      Printf.printf "audit after tampering: %s (violations recorded: %d)\n"
        (if List.for_all (fun r -> r.Auditor.ar_ok) reports then
           "MISSED (bug!)"
         else "tamper detected")
        (Auditor.failures auditor);
      Cluster.stop cluster)
