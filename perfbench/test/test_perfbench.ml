module Cursor = Tt_perfbench.Cursor
module Summary = Tt_perfbench.Summary
module Calib = Tt_perfbench.Calib
module Engine = Tt_sim.Engine
module Thread = Tt_sim.Thread
module Env = Tt_app.Env

(* Expected values from Python's statistics.median / quantiles(n=4). *)
let test_summary () =
  let check values (median, q1, q3) =
    let s = Summary.of_list values in
    Alcotest.(check int) "n" (List.length values) s.Summary.n;
    Alcotest.(check (float 1e-12)) "median" median s.Summary.median;
    Alcotest.(check (float 1e-12)) "q1" q1 s.Summary.q1;
    Alcotest.(check (float 1e-12)) "q3" q3 s.Summary.q3
  in
  check [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] (5.5, 2.75, 8.25);
  check [ 3.; 1.; 2.; 10. ] (2.5, 1.25, 8.25);
  check [ 1.; 2.; 3. ] (2.0, 1.0, 3.0);
  check [ 5.; 1. ] (3.0, 0.0, 6.0);
  check [ 7. ] (7.0, 7.0, 7.0);
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_list: no samples")
    (fun () -> ignore (Summary.of_list []))

let test_calib () =
  Alcotest.(check (float 1e-6)) "a slice at reference speed" 1000.0
    (Calib.scale 1000 ~before:2_500_000 ~after:2_500_000);
  Alcotest.(check (float 1e-6)) "a slice on a host twice as slow" 500.0
    (Calib.scale 1000 ~before:4_000_000 ~after:6_000_000);
  (* slices of a fake clock; the chunk that follows each slice takes
     reference time, then twice, then three times as long *)
  let now = ref 0 and chunks = ref [ 1; 1; 2; 3 ] in
  let chunk () =
    let k = List.hd !chunks in
    chunks := List.tl !chunks;
    let ns = int_of_float (Calib.reference_ns *. float_of_int k) in
    now := !now + ns;
    ns
  in
  let c = Calib.start ~clock:(fun () -> !now) ~chunk () in
  let advance ns =
    now := !now + ns;
    Calib.tick c
  in
  advance (Calib.slice_ns - 1);
  Alcotest.(check int) "no slice closed early" 0 (Calib.raw_ns c);
  advance 1;
  advance Calib.slice_ns;
  advance 600;
  Calib.stop c;
  let s = float_of_int Calib.slice_ns in
  Alcotest.(check int) "raw: the slices without the chunks"
    ((2 * Calib.slice_ns) + 600) (Calib.raw_ns c);
  Alcotest.(check (float 1e-3)) "scaled by the chunks around each slice"
    ((s /. 1.0) +. (s /. 1.5) +. (600.0 /. 2.5))
    (Calib.scaled_ns c);
  Alcotest.(check (float 1e-6)) "median chunk"
    (1.5 *. Calib.reference_ns) (Calib.median_chunk_ns c)

let test_chunk_allocates_nothing () =
  ignore (Calib.chunk_ns ());
  let before = Gc.minor_words () in
  ignore (Calib.chunk_ns ());
  Alcotest.(check (float 0.)) "minor words" 0.0 (Gc.minor_words () -. before)

(* A fake clock that only the scenario advances: [tick n] is n ns spent in
   whatever layer the cursor names at that moment. *)
let now = ref 0
let tick n = now := !now + n

let fake_env engine th =
  {
    Env.proc = 0;
    nprocs = 1;
    (* an access that misses: 3 ns before the wait, then a wake from a later
       engine event that itself spends 50 ns, then 2 ns after the resume *)
    read =
      (fun _ ->
        tick 3;
        let v =
          Thread.await th (fun wake ->
              Engine.after engine 10 (fun () ->
                  tick 50;
                  wake 7))
        in
        tick 2;
        float_of_int v);
    write = (fun _ _ -> ());
    (* an access that hits: 6 ns, no event *)
    read_int =
      (fun _ ->
        tick 6;
        1);
    write_int = (fun _ _ -> ());
    work = (fun _ -> tick 4);
    prefetch = ignore;
    barrier = (fun () -> tick 5);
    lock = ignore;
    unlock = ignore;
    alloc = (fun ?home:_ _ -> 0);
    alloc_kind = (fun _ ?home:_ _ -> 0);
    hook = ignore;
    has_hook = (fun _ -> false);
  }

let test_cursor () =
  Cursor.clock := (fun () -> !now);
  let engine = Engine.create () in
  let app (env : Env.t) =
    tick 1;
    Alcotest.(check (float 0.)) "woken value" 7.0 (env.Env.read 0);
    tick 8;
    ignore (env.Env.read_int 0);
    env.Env.work 1;
    env.Env.barrier ();
    tick 9
  in
  let th =
    Thread.spawn engine ~name:"p0" (fun th -> Cursor.body app (fake_env engine th))
  in
  Cursor.attach engine;
  Cursor.reset ();
  tick 100;
  Engine.run engine;
  (* the processor has finished, so the cursor is back on [Event] *)
  tick 20;
  let wall = Cursor.stop () in
  Engine.set_trace engine None;
  Cursor.clock := Cursor.now_ns;
  Alcotest.(check bool) "finished" true (Thread.finished th);
  let self l = Cursor.self_ns l in
  Alcotest.(check int) "run" 100 (self Cursor.Run);
  Alcotest.(check int) "app" 18 (self Cursor.App);
  Alcotest.(check int) "access: before the wait and the hit" 9
    (self Cursor.Access);
  Alcotest.(check int) "event: waking event, resumed tail, after the end" 72
    (self Cursor.Event);
  Alcotest.(check int) "thread" 4 (self Cursor.Thread);
  Alcotest.(check int) "sync" 5 (self Cursor.Sync);
  Alcotest.(check int) "handlers" 0 (self Cursor.Handlers);
  Alcotest.(check int) "self times sum to the wall time" wall
    (List.fold_left (fun acc l -> acc + self l) 0 Cursor.layers);
  let c = Cursor.counts in
  Alcotest.(check int) "access calls" 2 c.Cursor.access_calls;
  Alcotest.(check int) "inline calls" 1 c.Cursor.access_inline;
  Alcotest.(check int) "inline time" 6 c.Cursor.access_inline_ns;
  Alcotest.(check int) "sync calls" 1 c.Cursor.sync_calls;
  Alcotest.(check bool) "start and wake events counted" true
    (c.Cursor.events >= 2)

let () =
  Alcotest.run "perfbench"
    [
      ("summary",
       [ Alcotest.test_case "median and quartiles" `Quick test_summary;
 ]);
      ("calib",
       [ Alcotest.test_case "slices scaled by the chunks around them" `Quick test_calib;
         Alcotest.test_case "chunk allocates nothing" `Quick
           test_chunk_allocates_nothing ]);
      ("cursor",
       [ Alcotest.test_case "suspending access, sums to wall" `Quick test_cursor ]);
    ]
