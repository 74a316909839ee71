(* Allocation regression tests for the simulator's per-access hot path:
   a cache hit and a protocol trace line for an untraced block.  Both
   run millions of times per simulation, so each is pinned to a fixed
   number of minor-heap words. *)

module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module Machine = Tt_harness.Machine
module Debug = Tt_util.Debug

let hits = 10_000

(* A read hit may allocate only the boxed [float] it returns: a header
   word and the 8-byte payload. *)
let words_per_hit = 2.0

(* Node 0 reads a block homed on node 1: one warm-up read brings the
   block in (a miss, and for Stache a page fault), then [hits] reads to
   the same address must all hit [cache], allocating at most
   [words_per_hit] each.  The quantum exceeds the loop's simulated
   cycles, so no scheduler yield falls inside it. *)
let check_read_hits label (m : Machine.t) cache =
  let words = ref nan and hit = ref 0 in
  let th =
    Thread.spawn m.Machine.engine ~quantum:max_int ~name:"cpu0" (fun th ->
        let a = m.Machine.alloc ~node:0 th ~home:1 64 in
        ignore (m.Machine.read ~node:0 th a);
        let h0 = Tt_cache.Cache.hits cache in
        let w0 = Gc.minor_words () in
        for _ = 1 to hits do
          ignore (Sys.opaque_identity (m.Machine.read ~node:0 th a))
        done;
        words := (Gc.minor_words () -. w0) /. float_of_int hits;
        hit := Tt_cache.Cache.hits cache - h0)
  in
  Engine.run m.Machine.engine;
  Alcotest.(check bool) "reader finished" true (Thread.finished th);
  Alcotest.(check int) "every timed read hit" hits !hit;
  if !words > words_per_hit then
    Alcotest.failf "%s: %.3f words per read hit, bound %.1f" label !words
      words_per_hit

let params = { Params.default with Params.nodes = 2 }

let test_dirnnb_hit () =
  let m, sys = Machine.dirnnb_full params in
  check_read_hits "dirnnb" m (Tt_dirnnb.System.cpu_cache sys 0)

let test_stache_hit () =
  let m, sys, _ = Machine.typhoon_stache_full params in
  check_read_hits "typhoon/stache" m (Tt_typhoon.System.cpu_cache sys 0)

let test_untraced_log () =
  let key = match Debug.target with Some k -> k + 1 | None -> 0 in
  let printed = ref 0 in
  let show () x =
    incr printed;
    string_of_int x
  in
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    Debug.log ~key "t=%d node=%d client=%a" i (i + 1) show i
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "words allocated" 0.0 words;
  Alcotest.(check int) "%a printer calls" 0 !printed

let () =
  Alcotest.run "alloc"
    [
      ( "read hit",
        [
          Alcotest.test_case "dirnnb" `Quick test_dirnnb_hit;
          Alcotest.test_case "typhoon/stache" `Quick test_stache_hit;
        ] );
      ( "debug log",
        [ Alcotest.test_case "untraced block is free" `Quick test_untraced_log ]
      );
    ]
