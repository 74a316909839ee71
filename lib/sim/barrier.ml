module Vec = Tt_util.Vec

type t = {
  engine : Engine.t;
  participants : int;
  latency : int;
  mutable arrived : int;
  mutable release_time : int;
  (* arrival-ordered waiter list, reset in place each episode (preallocated,
     reused — no per-wait cons cell or (thread, wake) tuple) *)
  waiters : Thread.t Vec.t;
  mutable episodes : int;
}

let create engine ~participants ~latency =
  if participants <= 0 then invalid_arg "Barrier.create";
  { engine; participants; latency; arrived = 0; release_time = 0;
    waiters = Vec.create (); episodes = 0 }

let episodes t = t.episodes

let wait t th =
  Thread.park th (fun () ->
      t.arrived <- t.arrived + 1;
      t.release_time <- max t.release_time (Thread.clock th + t.latency);
      Vec.push t.waiters th;
      if t.arrived = t.participants then begin
        let release_time = t.release_time in
        t.arrived <- 0;
        t.release_time <- 0;
        t.episodes <- t.episodes + 1;
        (* Release in the order the former cons-list produced: the last
           arriver (ourselves) first, then earlier arrivers in reverse
           arrival order.  Each unpark schedules that thread's resume
           event, so the resumes fire in this order. *)
        for i = Vec.length t.waiters - 1 downto 0 do
          let w = Vec.get t.waiters i in
          Thread.set_clock w release_time;
          Thread.unpark w
        done;
        Vec.reset t.waiters
      end)
