(* Whole-suite invariant: pool-debug mode poisons released pool buffers
   and rejects double-release (satellite of the zero-allocation PR). *)
let () = Tt_util.Debug.set_pool_debug true

(* Tests for the DirNNB all-hardware directory machine: cost formulas,
   protocol flows, invariants under randomized workloads. *)

module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module Dirnnb = Tt_dirnnb.System
module Directory = Tt_dirnnb.Directory
module Addr = Tt_mem.Addr
module Bitset = Tt_util.Bitset
module Stats = Tt_util.Stats

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let mk ?(nodes = 4) ?(cache = 256 * 1024) () =
  let engine = Engine.create () in
  let sys =
    Dirnnb.create engine
      { Params.default with Params.nodes; cpu_cache_bytes = cache }
  in
  (engine, sys)

let page = 0x3000

let base = page * Addr.page_size

(* run one thread per node in lockstep-ish; bodies index by node *)
let run_cpus engine bodies =
  let threads =
    Array.mapi
      (fun i body -> Thread.spawn engine ~name:(Printf.sprintf "cpu%d" i) body)
      bodies
  in
  Engine.run engine;
  Array.iteri
    (fun i th ->
      if not (Thread.finished th) then
        Alcotest.fail (Printf.sprintf "cpu%d did not finish" i))
    threads;
  threads

let test_local_clean_miss_cost () =
  let engine, sys = mk () in
  Dirnnb.map_shared_page sys ~vpage:page ~home:0;
  let cost = ref 0 in
  let _ =
    run_cpus engine
      [|
        (fun th ->
          let c0 = Thread.clock th in
          ignore (Dirnnb.cpu_read_f64 sys ~node:0 th base);
          cost := Thread.clock th - c0);
      |]
  in
  check_int "instr + tlb + local miss" (1 + 25 + 29) !cost

let test_remote_clean_miss_cost () =
  let engine, sys = mk ~nodes:2 () in
  Dirnnb.map_shared_page sys ~vpage:page ~home:1;
  let cost = ref 0 in
  let _ =
    run_cpus engine
      [|
        (fun th ->
          let c0 = Thread.clock th in
          ignore (Dirnnb.cpu_read_f64 sys ~node:0 th base);
          cost := Thread.clock th - c0);
        (fun _ -> ());
      |]
  in
  (* instr 1 + tlb 25 + base 23 + net 11 + dir(16 + per_msg 5 + block_send 11)
     + ctrl reply charge 1 at requester? (charged to ctrl) + net 11 + finish 34 *)
  let p = Params.default in
  let expect =
    1 + 25 + p.Params.remote_miss_base + p.Params.net_latency
    + p.Params.dir_op + p.Params.dir_per_msg + p.Params.dir_block_send
    + p.Params.net_latency + 1 + p.Params.remote_miss_finish
  in
  check_int "Table 2 remote miss formula" expect !cost

let test_read_then_write_invalidates_sharer () =
  let engine, sys = mk ~nodes:3 () in
  Dirnnb.map_shared_page sys ~vpage:page ~home:0;
  let phase = Tt_sim.Barrier.create engine ~participants:3 ~latency:11 in
  let _ =
    run_cpus engine
      [|
        (fun th ->
          (* home writes, establishing ownership *)
          Dirnnb.cpu_write_f64 sys ~node:0 th base 1.0;
          Tt_sim.Barrier.wait phase th;
          (* reader has a copy now *)
          Tt_sim.Barrier.wait phase th;
          (* write again: must invalidate node 1 *)
          Dirnnb.cpu_write_f64 sys ~node:0 th base 2.0;
          Tt_sim.Barrier.wait phase th);
        (fun th ->
          Tt_sim.Barrier.wait phase th;
          Alcotest.(check (float 0.0)) "reader sees value" 1.0
            (Dirnnb.cpu_read_f64 sys ~node:1 th base);
          Tt_sim.Barrier.wait phase th;
          Tt_sim.Barrier.wait phase th;
          Alcotest.(check (float 0.0)) "reader sees new value" 2.0
            (Dirnnb.cpu_read_f64 sys ~node:1 th base));
        (fun th ->
          Tt_sim.Barrier.wait phase th;
          Tt_sim.Barrier.wait phase th;
          Tt_sim.Barrier.wait phase th);
      |]
  in
  check_bool "an invalidation was delivered" true
    (Stats.get (Dirnnb.node_stats sys 1) "invals_received" >= 1);
  match Dirnnb.check_invariants sys with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_recall_from_remote_owner () =
  let engine, sys = mk ~nodes:3 () in
  Dirnnb.map_shared_page sys ~vpage:page ~home:0;
  let phase = Tt_sim.Barrier.create engine ~participants:2 ~latency:11 in
  let _ =
    run_cpus engine
      [|
        (fun _ -> ());
        (fun th ->
          Dirnnb.cpu_write_f64 sys ~node:1 th base 5.0;
          Tt_sim.Barrier.wait phase th);
        (fun th ->
          Tt_sim.Barrier.wait phase th;
          Alcotest.(check (float 0.0)) "recalled value" 5.0
            (Dirnnb.cpu_read_f64 sys ~node:2 th base));
      |]
  in
  check_bool "a recall happened" true
    (Stats.get (Dirnnb.node_stats sys 0) "recalls" >= 1);
  (* after a read recall the old owner keeps a shared copy *)
  let entry = Directory.entry (Dirnnb.directory sys 0) ~block:(Addr.block_of base) in
  check_bool "owner cleared" true (entry.Directory.owner = None);
  check_bool "both are sharers" true
    (Bitset.mem entry.Directory.sharers 1 && Bitset.mem entry.Directory.sharers 2);
  match Dirnnb.check_invariants sys with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_eviction_writeback_updates_directory () =
  (* tiny cache forces exclusive evictions; the directory must track them *)
  let engine, sys = mk ~nodes:2 ~cache:4096 () in
  Dirnnb.map_shared_page sys ~vpage:page ~home:0;
  Dirnnb.map_shared_page sys ~vpage:(page + 1) ~home:0;
  let _ =
    run_cpus engine
      [|
        (fun _ -> ());
        (fun th ->
          (* write far more blocks than a 4 KB cache holds *)
          for i = 0 to 511 do
            Dirnnb.cpu_write_f64 sys ~node:1 th (base + (i * 16)) 1.0
          done);
      |]
  in
  check_bool "writebacks happened" true
    (Stats.get (Dirnnb.node_stats sys 1) "writebacks" > 0);
  match Dirnnb.check_invariants sys with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_alloc_round_robin () =
  let engine, sys = mk ~nodes:4 () in
  let homes = ref [] in
  let _ =
    run_cpus engine
      [|
        (fun th ->
          for _ = 1 to 4 do
            let va = Dirnnb.alloc sys ~th ~node:0 ~bytes:Addr.page_size () in
            homes := Dirnnb.page_home sys ~vpage:(Addr.page_of va) :: !homes
          done);
        (fun _ -> ());
        (fun _ -> ());
        (fun _ -> ());
      |]
  in
  Alcotest.(check (list int)) "round robin" [ 0; 1; 2; 3 ] (List.rev !homes)

let test_alloc_pinned_home () =
  let engine, sys = mk ~nodes:4 () in
  let _ =
    run_cpus engine
      [|
        (fun th ->
          let va = Dirnnb.alloc sys ~th ~node:0 ~home:3 ~bytes:64 () in
          check_int "pinned" 3 (Dirnnb.page_home sys ~vpage:(Addr.page_of va)));
        (fun _ -> ());
        (fun _ -> ());
        (fun _ -> ());
      |]
  in
  ()

(* Randomized workload: invariants must hold at quiescence and all values
   must match a sequential model (writes are serialized by a lock). *)
let prop_random_program =
  QCheck.Test.make ~name:"random shared accesses keep invariants" ~count:25
    QCheck.(int_bound 1000)
    (fun seed ->
      let nodes = 4 in
      let engine = Engine.create () in
      let sys =
        Dirnnb.create engine
          { Params.default with Params.nodes; cpu_cache_bytes = 4096; seed = seed + 1 }
      in
      Dirnnb.map_shared_page sys ~vpage:page ~home:0;
      Dirnnb.map_shared_page sys ~vpage:(page + 1) ~home:1;
      let lock = Tt_sim.Lock.create engine () in
      let body node th =
        let prng = Tt_util.Prng.create ~seed:(seed + node) in
        for _op = 1 to 200 do
          let va = base + (Tt_util.Prng.int prng 1024 * 8) in
          if Tt_util.Prng.bool prng then
            ignore (Dirnnb.cpu_read_f64 sys ~node th va)
          else begin
            Tt_sim.Lock.acquire lock th;
            Dirnnb.cpu_write_f64 sys ~node th va
              (Dirnnb.cpu_read_f64 sys ~node th va +. 1.0);
            Tt_sim.Lock.release lock th
          end
        done
      in
      let threads =
        Array.init nodes (fun i ->
            Thread.spawn engine ~name:(Printf.sprintf "cpu%d" i) (body i))
      in
      Engine.run engine;
      Array.for_all Thread.finished threads
      && Dirnnb.check_invariants sys = Ok ())

(* Node 0 stalls on a remote read miss; the page's home (node 1) crashes
   while the request is in flight, so the request is lost.  The death
   verdict re-homes the page on node 2 from a checkpoint, which re-issues
   the request there.  The read must return the checkpoint's value from
   node 2's memory, not anything left at the old home. *)
let test_read_after_rehome_while_stalled () =
  let p = Params.default in
  let sent = 1 + 25 + p.Params.remote_miss_base in
  let config =
    Tt_net.Faults.uniform
      ~crashes:[ Tt_net.Faults.crash ~victim:1 ~at:(sent + 1) () ]
      ()
  in
  let engine = Engine.create () in
  let sys =
    Dirnnb.create ~reliability:(Tt_net.Reliable.Flaky config) engine
      { p with Params.nodes = 3 }
  in
  Dirnnb.map_shared_page sys ~vpage:page ~home:1;
  Tt_mem.Pagemem.write_f64 (Dirnnb.home_mem sys 1) ~vaddr:base 1.0;
  let checkpoint = Bytes.make Addr.page_size '\000' in
  Bytes.set_int64_le checkpoint 0 (Int64.bits_of_float 2.0);
  let dead = ref false in
  Dirnnb.set_is_dead sys (fun n -> !dead && n = 1);
  Engine.at engine (sent + 200) (fun () ->
      dead := true;
      let net = Dirnnb.net sys in
      Tt_net.Reliable.on_peer_death net ~node:1;
      ignore
        (Tt_net.Reliable.scrub_unacked net ~node:1
           ~handler:Dirnnb.noop_handler);
      Dirnnb.on_node_death sys ~dead:1 ~new_home:2 ~restore:(fun ~vpage ->
          if vpage = page then Some checkpoint else None));
  let got = ref nan and finished_at = ref 0 in
  let _ =
    run_cpus engine
      [|
        (fun th ->
          got := Dirnnb.cpu_read_f64 sys ~node:0 th base;
          finished_at := Thread.clock th);
        (fun _ -> ());
        (fun _ -> ());
      |]
  in
  check_bool "stalled across the death verdict" true
    (!finished_at > sent + 200);
  check_int "page re-homed" 2 (Dirnnb.page_home sys ~vpage:page);
  Alcotest.(check (float 0.0)) "value from the new home" 2.0 !got

(* Audit mutation tests: after a clean run, plant one violation of each
   [check_invariants] clause straight into directory or cache state and
   expect that clause's message.  Node 1 owns block [b0] and node 2 read
   [b0 + 1]; the planted block [pb] is one nobody touched. *)
let b0 = Addr.block_of base

let pb = b0 + 10

let audited_clean () =
  let engine, sys = mk ~nodes:3 () in
  Dirnnb.map_shared_page sys ~vpage:page ~home:0;
  let _ =
    run_cpus engine
      [|
        (fun _ -> ());
        (fun th -> Dirnnb.cpu_write_f64 sys ~node:1 th base 1.0);
        (fun th ->
          ignore (Dirnnb.cpu_read_f64 sys ~node:2 th (base + Addr.block_size)));
      |]
  in
  (match Dirnnb.check_invariants sys with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("clean run: " ^ msg));
  sys

let expect_violation sys msg =
  Alcotest.(check (result unit string)) "audit verdict" (Error msg)
    (Dirnnb.check_invariants sys)

let planted_entry sys = Directory.entry (Dirnnb.directory sys 0) ~block:pb

let cache_line sys node block state =
  ignore (Tt_cache.Cache.insert (Dirnnb.cpu_cache sys node) ~block ~state)

let test_audit_pending () =
  let sys = audited_clean () in
  (planted_entry sys).Directory.busy <-
    Some { Directory.kind = Directory.Read; requester = 1; acks_left = 0 };
  expect_violation sys
    (Printf.sprintf "home 0 block 0x%x: transaction left pending" pb)

let test_audit_waiters () =
  let sys = audited_clean () in
  Queue.add (Directory.Read, 2) (planted_entry sys).Directory.waiting;
  expect_violation sys
    (Printf.sprintf "home 0 block 0x%x: waiters left queued" pb)

let test_audit_owner_sharer () =
  let sys = audited_clean () in
  let e = planted_entry sys in
  e.Directory.owner <- Some 1;
  Bitset.add e.Directory.sharers 1;
  expect_violation sys
    (Printf.sprintf "home 0 block 0x%x: owner 1 also listed as sharer" pb)

let test_audit_owner_and_sharers () =
  let sys = audited_clean () in
  let e = planted_entry sys in
  e.Directory.owner <- Some 1;
  Bitset.add e.Directory.sharers 2;
  expect_violation sys
    (Printf.sprintf "home 0 block 0x%x: owner and sharers coexist" pb)

let test_audit_exclusive_unowned () =
  let sys = audited_clean () in
  cache_line sys 2 pb Tt_cache.Cache.Exclusive;
  expect_violation sys
    (Printf.sprintf "block 0x%x cached exclusive at 2 but unowned" pb)

let test_audit_exclusive_owned_elsewhere () =
  let sys = audited_clean () in
  (planted_entry sys).Directory.owner <- Some 1;
  cache_line sys 2 pb Tt_cache.Cache.Exclusive;
  expect_violation sys
    (Printf.sprintf "block 0x%x cached exclusive at 2 but owned by 1" pb)

(* Blocks of a page with no home skip the per-home clauses, so the
   machine-wide copy audit is the one that speaks. *)
let test_audit_two_exclusive () =
  let sys = audited_clean () in
  let stray = Addr.block_of ((page + 5) * Addr.page_size) in
  cache_line sys 1 stray Tt_cache.Cache.Exclusive;
  cache_line sys 2 stray Tt_cache.Cache.Exclusive;
  expect_violation sys
    (Printf.sprintf "block 0x%x: multiple exclusive copies (2, 1)" stray)

let test_audit_exclusive_plus_copy () =
  let sys = audited_clean () in
  (planted_entry sys).Directory.owner <- Some 1;
  cache_line sys 1 pb Tt_cache.Cache.Exclusive;
  cache_line sys 0 pb Tt_cache.Cache.Shared;
  cache_line sys 2 pb Tt_cache.Cache.Shared;
  expect_violation sys
    (Printf.sprintf "block 0x%x: exclusive at 1 but also cached at 2, 0" pb)

let test_audit_shared_not_sharer () =
  let sys = audited_clean () in
  ignore (planted_entry sys);
  cache_line sys 2 pb Tt_cache.Cache.Shared;
  expect_violation sys
    (Printf.sprintf
       "block 0x%x: cached shared at 2 but absent from home 0's sharer set" pb)

let test_audit_shared_no_entry () =
  let sys = audited_clean () in
  cache_line sys 2 pb Tt_cache.Cache.Shared;
  expect_violation sys
    (Printf.sprintf
       "block 0x%x: cached shared at 2 but home 0 has no directory entry" pb)

(* Of several violations the audit reports the lowest block's, whatever
   the clause: here a cache-side violation below a directory-side one. *)
let test_audit_lowest_block_first () =
  let sys = audited_clean () in
  let above = Directory.entry (Dirnnb.directory sys 0) ~block:(pb + 7) in
  Queue.add (Directory.Read, 2) above.Directory.waiting;
  cache_line sys 2 pb Tt_cache.Cache.Exclusive;
  expect_violation sys
    (Printf.sprintf "block 0x%x cached exclusive at 2 but unowned" pb)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dirnnb"
    [
      ( "costs",
        [
          Alcotest.test_case "local clean miss" `Quick test_local_clean_miss_cost;
          Alcotest.test_case "remote clean miss (Table 2)" `Quick
            test_remote_clean_miss_cost;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "write invalidates sharer" `Quick
            test_read_then_write_invalidates_sharer;
          Alcotest.test_case "recall from remote owner" `Quick
            test_recall_from_remote_owner;
          Alcotest.test_case "eviction writeback" `Quick
            test_eviction_writeback_updates_directory;
          Alcotest.test_case "read after re-home while stalled" `Quick
            test_read_after_rehome_while_stalled;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "round robin" `Quick test_alloc_round_robin;
          Alcotest.test_case "pinned home" `Quick test_alloc_pinned_home;
        ] );
      ( "audit",
        [
          Alcotest.test_case "pending transaction" `Quick test_audit_pending;
          Alcotest.test_case "queued waiters" `Quick test_audit_waiters;
          Alcotest.test_case "owner also a sharer" `Quick
            test_audit_owner_sharer;
          Alcotest.test_case "owner and sharers" `Quick
            test_audit_owner_and_sharers;
          Alcotest.test_case "exclusive copy unowned" `Quick
            test_audit_exclusive_unowned;
          Alcotest.test_case "exclusive copy owned elsewhere" `Quick
            test_audit_exclusive_owned_elsewhere;
          Alcotest.test_case "two exclusive copies" `Quick
            test_audit_two_exclusive;
          Alcotest.test_case "exclusive plus another copy" `Quick
            test_audit_exclusive_plus_copy;
          Alcotest.test_case "shared copy not a sharer" `Quick
            test_audit_shared_not_sharer;
          Alcotest.test_case "shared copy without entry" `Quick
            test_audit_shared_no_entry;
          Alcotest.test_case "lowest block first" `Quick
            test_audit_lowest_block_first;
        ] );
      ("random", [ qc prop_random_program ]);
    ]
