module Machine = Tt_harness.Machine
module Run = Tt_harness.Run
module Stats = Tt_util.Stats
module Em3d = Tt_app.Em3d
module Ocean = Tt_app.Ocean

type app = Em3d of Em3d.config | Ocean of Ocean.config
type machine = Stache | Update | Dirnnb

type t = {
  name : string;
  app : app;
  data : string;  (** Table 3 data set and the scale applied to it *)
  machine : machine;
  nodes : int;
}

(* Both em3d workloads share one data scale, chosen so that a run of
   em3d-stache stays a few host seconds; ocean keeps the full large grid. *)
let em3d_scale = 0.5

let all =
  [
    { name = "em3d-stache"; app = Em3d (Em3d.scale Em3d.small em3d_scale);
      data = Printf.sprintf "small x%g" em3d_scale; machine = Stache;
      nodes = 32 };
    { name = "em3d-update"; app = Em3d (Em3d.scale Em3d.small em3d_scale);
      data = Printf.sprintf "small x%g" em3d_scale; machine = Update;
      nodes = 32 };
    { name = "ocean-dirnnb-128"; app = Ocean Ocean.large; data = "large x1";
      machine = Dirnnb; nodes = 128 };
  ]

let name w = w.name
let find n = List.find_opt (fun w -> w.name = n) all
let default_seed = 42
let held_out_seed = 4242
let cache_kb = 256

let describe w ~seed =
  let app =
    match w.app with
    | Em3d c ->
        Printf.sprintf "em3d data=%s (%d graph nodes, degree %d, %d%% remote)"
          w.data c.Em3d.total_nodes c.Em3d.degree c.Em3d.pct_remote
    | Ocean c -> Printf.sprintf "ocean data=%s (%dx%d grid)" w.data c.Ocean.n c.Ocean.n
  in
  let machine =
    match w.machine with
    | Stache -> "typhoon/stache"
    | Update -> "typhoon/update"
    | Dirnnb -> "dirnnb"
  in
  Printf.sprintf "%s machine=%s nodes=%d cache_kb=%d seed=%d" app machine
    w.nodes cache_kb seed

type built = {
  machine : Machine.t;
  tables : Tempest.Handlers.tables option;
  caches : Tt_cache.Cache.t array;
  nps : Tt_typhoon.Np.t array;
  body : Tt_app.Env.t -> unit;
  verify : Tt_app.Env.t -> unit;
}

let build w ~seed =
  let params =
    { Params.default with
      Params.nodes = w.nodes; seed; cpu_cache_bytes = cache_kb * 1024 }
  in
  let n = w.nodes in
  let typhoon (m, sys) =
    let module S = Tt_typhoon.System in
    (m, Some (S.handlers sys), Array.init n (S.cpu_cache sys),
     Array.init n (S.node_np sys))
  in
  let machine, tables, caches, nps =
    match w.machine with
    | Stache ->
        let m, sys, _ = Machine.typhoon_stache_full params in
        typhoon (m, sys)
    | Update ->
        let m, sys, _, _ = Machine.typhoon_em3d_full params in
        typhoon (m, sys)
    | Dirnnb ->
        let m, sys = Machine.dirnnb_full params in
        (m, None, Array.init n (Tt_dirnnb.System.cpu_cache sys), [||])
  in
  let body, verify =
    match w.app with
    | Em3d c ->
        let i = Em3d.make { c with Em3d.seed } ~nprocs:n in
        (i.Em3d.body, i.Em3d.verify)
    | Ocean c ->
        let i = Ocean.make { c with Ocean.seed } ~nprocs:n in
        (i.Ocean.body, i.Ocean.verify)
  in
  { machine; tables; caches; nps; body; verify }

let seconds ns = float_of_int ns *. 1e-9
let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Simulated counts every run of one seed must reproduce exactly. *)
let model_counts b (r : Run.result) ~events =
  let s = r.Run.run_stats in
  let g k = float_of_int (Stats.get s k) in
  let gs ks = List.fold_left (fun acc k -> acc +. g k) 0.0 ks in
  [
    ("sim_cycles", float_of_int r.Run.cycles);
    ("accesses", g "accesses");
    ("event.count", float_of_int events);
    ("cache.hits", float_of_int (sum Tt_cache.Cache.hits b.caches));
    ("cache.misses", float_of_int (sum Tt_cache.Cache.misses b.caches));
    ("np.handled", float_of_int (sum Tt_typhoon.Np.handled b.nps));
    ("np.busy_cycles", float_of_int (sum Tt_typhoon.Np.busy_cycles b.nps));
    ("net.msgs", gs [ "msgs.request"; "msgs.response"; "msgs.local" ]);
    ("net.words", gs [ "words.request"; "words.response" ]);
    ("net.retransmits",
     float_of_int (Tt_net.Reliable.retransmits b.machine.Machine.net));
    ("flow.blocked", g "flow.blocked");
    ("flow.spilled", g "flow.spilled");
    ("thread.suspensions", g "suspensions_taken");
    ("thread.elided", g "suspensions_elided");
  ]

(* The layer self times telescope to the cursor's own span by construction;
   what is checked is that they also account for the wall time taken
   independently around [Run.spmd], which includes starting and stopping
   the cursor. *)
let layer_tolerance = 0.01

let layer_metrics ~wall_ns =
  let c = Cursor.counts in
  let self l = seconds (Cursor.self_ns l) in
  let total = List.fold_left (fun acc l -> acc + Cursor.self_ns l) 0 Cursor.layers in
  if Float.abs (float_of_int (total - wall_ns))
     > layer_tolerance *. float_of_int wall_ns
  then
    failwith
      (Printf.sprintf
         "layer self times sum to %d ns, traced wall is %d ns (tolerance %g)"
         total wall_ns layer_tolerance);
  List.map
    (fun l ->
      match l with
      | Cursor.Handlers -> ("handlers.fault_self_s", self l)
      | l -> (Cursor.name l ^ ".self_s", self l))
    Cursor.layers
  @ [
      ("access.calls", float_of_int c.Cursor.access_calls);
      ("access.inline_calls", float_of_int c.Cursor.access_inline);
      ("access.suspended_calls",
       float_of_int (c.Cursor.access_calls - c.Cursor.access_inline));
      ("access.inline_self_s", seconds c.Cursor.access_inline_ns);
      ("access.ns_per_inline", ratio c.Cursor.access_inline_ns c.Cursor.access_inline);
      ("sync.calls", float_of_int c.Cursor.sync_calls);
      ("event.per_s", float_of_int c.Cursor.events /. seconds wall_ns);
      ("handlers.fault_calls", float_of_int c.Cursor.fault_calls);
      ("handlers.ns_per_fault",
       ratio (Cursor.self_ns Cursor.Handlers) c.Cursor.fault_calls);
      ("layer_sum_error",
       Float.abs (float_of_int (total - wall_ns)) /. float_of_int wall_ns);
    ]

type result = {
  values : (string * float) list;
  model : (string * float) list;
  setup_s : float list;
}

let setup_builds = 5

(* Set-up time, raw and scaled by the reference chunks run just before
   and just after it. *)
let timed_build w ~seed =
  let before = Calib.chunk_ns () in
  let t0 = Cursor.now_ns () in
  let b = build w ~seed in
  let raw = Cursor.now_ns () - t0 in
  let after = Calib.chunk_ns () in
  (b, seconds raw, Calib.scale raw ~before ~after *. 1e-9)

let run w ~seed ~traced =
  let b, setup_raw, setup = timed_build w ~seed in
  let engine = b.machine.Machine.engine in
  let events = ref 0 in
  let cal = ref None in
  let machine, body =
    if traced then begin
      Option.iter Cursor.wrap_handlers b.tables;
      Cursor.attach engine;
      (Cursor.machine b.machine, Cursor.body b.body)
    end
    else begin
      Tt_sim.Engine.set_trace engine
        (Some
           (fun _ ->
             incr events;
             if !events land 255 = 0 then Option.iter Calib.tick !cal));
      (b.machine, b.body)
    end
  in
  let gc0 = Gc.quick_stat () in
  if not traced then cal := Some (Calib.start ());
  let t1 = Cursor.now_ns () in
  if traced then Cursor.reset ();
  let r = Run.spmd machine ~name:w.name body in
  if traced then ignore (Cursor.stop ());
  let t2 = Cursor.now_ns () in
  Option.iter Calib.stop !cal;
  let gc1 = Gc.quick_stat () in
  let wall_ns = t2 - t1 in
  (* read the cursor before the oracle pass, which the wrapped fault
     handlers would otherwise keep charging *)
  let layers = if traced then layer_metrics ~wall_ns else [] in
  let events = if traced then Cursor.counts.Cursor.events else !events in
  Tt_sim.Engine.set_trace engine None;
  let model = model_counts b r ~events in
  ignore (Run.spmd b.machine ~name:(w.name ^ "-verify") ~check:false b.verify);
  (* further set-ups, timed after the run so that their garbage cannot
     raise the run's peak heap *)
  let setup_s =
    setup
    :: List.init (setup_builds - 1) (fun _ ->
           let _, _, s = timed_build w ~seed in
           s)
  in
  let timing =
    match !cal with
    | None -> [ ("wall_s", seconds wall_ns) ]
    | Some c ->
        [
          ("ref_wall_s", Calib.scaled_ns c *. 1e-9);
          ("host.wall_s", seconds (Calib.raw_ns c));
          ("host.setup_s", setup_raw);
          ("host.ref_chunk_ms", Calib.median_chunk_ns c *. 1e-6);
        ]
  in
  let accesses = List.assoc "accesses" model in
  let minor = gc1.Gc.minor_words -. gc0.Gc.minor_words in
  let values =
    timing
    @ [
      ("alloc_words_per_access",
       if accesses = 0.0 then 0.0 else minor /. accesses);
      ("peak_heap_mb",
       float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
      ("gc.minor_words", minor);
      ("gc.promoted_words", gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
      ("gc.minor_collections",
       float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
      ("gc.major_collections",
       float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    ]
    @ layers
  in
  { values; model; setup_s }
