module Env = Tt_app.Env

type layer = Run | App | Access | Thread | Sync | Handlers | Event

let layers = [ Run; App; Access; Thread; Sync; Handlers; Event ]

let name = function
  | Run -> "run"
  | App -> "app"
  | Access -> "access"
  | Thread -> "thread"
  | Sync -> "sync"
  | Handlers -> "handlers"
  | Event -> "event"

let index = function
  | Run -> 0
  | App -> 1
  | Access -> 2
  | Thread -> 3
  | Sync -> 4
  | Handlers -> 5
  | Event -> 6

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let clock = ref now_ns

type counts = {
  mutable events : int;
  mutable access_calls : int;
  mutable access_inline : int;
  mutable access_inline_ns : int;
  mutable sync_calls : int;
  mutable fault_calls : int;
}

let counts =
  { events = 0; access_calls = 0; access_inline = 0; access_inline_ns = 0;
    sync_calls = 0; fault_calls = 0 }

let self = Array.make (List.length layers) 0
let cur = ref Run
let last = ref 0
let started = ref 0

(* Charge the time since the last switch to the current layer, make [l]
   current, and return the switch's timestamp. *)
let switch l =
  let t = !clock () in
  let i = index !cur in
  self.(i) <- self.(i) + (t - !last);
  last := t;
  cur := l;
  t

let reset () =
  Array.fill self 0 (Array.length self) 0;
  counts.events <- 0;
  counts.access_calls <- 0;
  counts.access_inline <- 0;
  counts.access_inline_ns <- 0;
  counts.sync_calls <- 0;
  counts.fault_calls <- 0;
  cur := Run;
  last := !clock ();
  started := !last

let stop () = switch Run - !started

let self_ns l = self.(index l)

let span l f x =
  let prev = !cur in
  ignore (switch l);
  let r = f x in
  ignore (switch prev);
  r

let finish_access ~events_before ~t0 ~t1 =
  counts.access_calls <- counts.access_calls + 1;
  if counts.events = events_before then begin
    counts.access_inline <- counts.access_inline + 1;
    counts.access_inline_ns <- counts.access_inline_ns + (t1 - t0)
  end

let access f x =
  let prev = !cur and events_before = counts.events in
  let t0 = switch Access in
  let r = f x in
  let t1 = switch prev in
  finish_access ~events_before ~t0 ~t1;
  r

let access2 f x y =
  let prev = !cur and events_before = counts.events in
  let t0 = switch Access in
  let r = f x y in
  let t1 = switch prev in
  finish_access ~events_before ~t0 ~t1;
  r

let sync f x =
  counts.sync_calls <- counts.sync_calls + 1;
  span Sync f x

let env (e : Env.t) =
  {
    e with
    Env.read = access e.Env.read;
    write = access2 e.Env.write;
    read_int = access e.Env.read_int;
    write_int = access2 e.Env.write_int;
    work = span Thread e.Env.work;
    prefetch = span Access e.Env.prefetch;
    barrier = sync e.Env.barrier;
    lock = sync e.Env.lock;
    unlock = sync e.Env.unlock;
    hook = sync e.Env.hook;
    alloc = (fun ?home bytes -> span Access (e.Env.alloc ?home) bytes);
    alloc_kind =
      (fun kind ?home bytes -> span Access (e.Env.alloc_kind kind ?home) bytes);
  }

let body f e =
  ignore (switch App);
  f (env e);
  ignore (switch Event)

let attach engine =
  Tt_sim.Engine.set_trace engine
    (Some
       (fun _key ->
         counts.events <- counts.events + 1;
         ignore (switch Event)))

let fault f x =
  counts.fault_calls <- counts.fault_calls + 1;
  span Handlers f x

let wrap_handlers tables =
  let module H = Tempest.Handlers in
  for mode = 0 to 15 do
    match H.block_fault tables ~mode with
    | Some h -> H.set_block_fault tables ~mode (fun ep -> fault (h ep))
    | None -> ()
  done;
  match H.page_fault tables with
  | Some h ->
      H.set_page_fault tables (fun ep ~vaddr access r ->
          fault (fun () -> h ep ~vaddr access r) ())
  | None -> ()

let machine (m : Tt_harness.Machine.t) =
  {
    m with
    Tt_harness.Machine.check_invariants =
      (fun () ->
        ignore (switch Run);
        m.Tt_harness.Machine.check_invariants ());
  }
