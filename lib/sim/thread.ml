module Stats = Tt_util.Stats

type state = Runnable | Blocked | Finished

(* Poll/continuation slot states (see DESIGN.md §5c).  Every blocking
   operation goes through one reusable per-thread slot:

     w_idle --- await runs [register] ---> w_registering
     w_registering -- wake fired, resume event scheduled -> w_fired
     w_registering -- register returned unfired ----------> w_suspended
     w_suspended --- wake fired, resume event scheduled --> w_fired

   Either way the thread captures its continuation once [register] has
   returned, and the preallocated resume event runs it. *)
let w_idle = 0

let w_registering = 1

let w_suspended = 2

let w_fired = 3

type t = {
  engine : Engine.t;
  thread_name : string;
  quantum : int;
  mutable clock : int;
  mutable last_yield : int;
  mutable state : state;
  mutable wait : int;  (* slot state, one of the [w_*] values above *)
  mutable wait_gen : int;
      (* bumped when an await completes; a wake closure carries the
         generation it was created under, so late calls are rejected *)
  mutable slot_value : int;  (* value passed to the wake, for the resume *)
  mutable resume_k : int -> unit;
      (* runner for the captured continuation of the await in flight *)
  mutable resume_event : unit -> unit;
      (* preallocated engine callback: [resume_k slot_value] *)
  mutable c_taken : Stats.counter option;
}

exception Failure_in of string * exn

(* Continuation capture, performed by [await] after [register] returned.
   The handler only stores the continuation runner; the resume event
   (scheduled by the wake, with the wake's FIFO seq) invokes it. *)
type _ Effect.t += Capture : int Effect.t

let name t = t.thread_name

let clock t = t.clock

let set_clock t c = t.clock <- c

let advance t n = t.clock <- t.clock + n

let finished t = t.state = Finished

let blocked t = t.state = Blocked

let wake_time t = max t.clock (Engine.now t.engine)

let set_suspend_counters t ~taken = t.c_taken <- Some taken

(* Wake the slot: schedule the resume event now, so it carries the FIFO seq
   of the wake itself.  This matters for a wake that fires while [register]
   is still running and the rest of [register] schedules more same-time
   events, e.g. a barrier releasing the other waiters. *)
let fire t gen v =
  if gen <> t.wait_gen then
    invalid_arg (Printf.sprintf "Thread %s woken twice" t.thread_name);
  if t.wait = w_registering || t.wait = w_suspended then begin
    t.slot_value <- v;
    t.state <- Runnable;
    t.clock <- wake_time t;
    (* blocking re-synchronized us with global time: reset the run-ahead
       bookkeeping so the continuation is not immediately preempted by
       maybe_yield.  This is what lets a CPU's retried access win against
       a queued invalidation after a fill — the hardware's
       forward-progress guarantee. *)
    t.last_yield <- t.clock;
    t.wait <- w_fired;
    Engine.at t.engine t.clock t.resume_event
  end
  else if t.wait = w_idle then
    (* a matching generation with an idle slot means no await/park is in
       flight at all — e.g. [unpark] on a thread that never parked.  Distinct
       from a double wake, which finds the slot fired. *)
    invalid_arg
      (Printf.sprintf
         "Thread %s: woken with no blocking operation in flight (slot idle)"
         t.thread_name)
  else invalid_arg (Printf.sprintf "Thread %s woken twice" t.thread_name)

(* Second half of every await, after [register] returned. *)
let await_end t =
  (match t.c_taken with Some c -> Stats.Counter.incr c | None -> ());
  if t.wait = w_registering then t.wait <- w_suspended;
  let v = Effect.perform Capture in
  t.wait <- w_idle;
  t.wait_gen <- t.wait_gen + 1;
  v

let begin_wait t =
  if t.wait <> w_idle then
    invalid_arg
      (Printf.sprintf "Thread %s: blocking operation while one is in flight"
         t.thread_name);
  t.wait <- w_registering

let await t register =
  begin_wait t;
  let gen = t.wait_gen in
  register (fun v -> fire t gen v);
  await_end t

let await_unit t register =
  begin_wait t;
  let gen = t.wait_gen in
  register (fun () -> fire t gen 0);
  ignore (await_end t)

let park t enqueue =
  begin_wait t;
  enqueue ();
  ignore (await_end t)

let unpark t = fire t t.wait_gen 0

let spawn engine ?(quantum = 200) ?start ~name body =
  let start = match start with Some s -> s | None -> Engine.now engine in
  let t =
    { engine; thread_name = name; quantum; clock = start; last_yield = start;
      state = Runnable; wait = w_idle; wait_gen = 0; slot_value = 0;
      resume_k = (fun _ -> ()); resume_event = (fun () -> ());
      c_taken = None }
  in
  t.resume_k <-
    (fun _ ->
      invalid_arg
        (Printf.sprintf "Thread %s: resume with no captured continuation"
           t.thread_name));
  t.resume_event <- (fun () -> t.resume_k t.slot_value);
  let handler =
    {
      Effect.Deep.retc = (fun () -> t.state <- Finished);
      exnc =
        (fun exn ->
          let bt = Printexc.get_raw_backtrace () in
          t.state <- Finished;
          Printexc.raise_with_backtrace (Failure_in (t.thread_name, exn)) bt);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Capture ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  t.resume_k <- (fun v -> Effect.Deep.continue k v);
                  (* a wake during registration already marked us runnable
                     and queued the resume event; only an unfired
                     registration is a real block *)
                  if t.wait = w_suspended then t.state <- Blocked)
          | _ -> None);
    }
  in
  Engine.at engine start (fun () -> Effect.Deep.match_with body t handler);
  t

(* One engine event at the local clock, scheduled from this point in the
   instruction stream, then a suspension until it fires. *)
let yield t =
  begin_wait t;
  unpark t;
  ignore (await_end t)

let maybe_yield t =
  if t.clock - t.last_yield >= t.quantum then begin
    t.last_yield <- t.clock;
    yield t
  end
