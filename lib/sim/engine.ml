(* The event queue packs each event's (time, seq) priority into one
   immediate int — [time lsl seq_bits lor seq] — so the binary heap
   ({!Tt_util.Intheap}) compares plain ints and stores the callback
   directly: no per-event record, no comparator closure.  See DESIGN.md
   "Performance" for the bit budget.

   [seq] breaks ties FIFO among events that coexist at equal times.  It
   resets to 0 whenever the queue drains (FIFO order only matters among
   coexisting events), and in the rare case that [seq_limit] events are
   scheduled without the queue ever draining, the live queue is renumbered
   in place ([rebase]), preserving order. *)

module Intheap = Tt_util.Intheap

let seq_bits = 20

let seq_limit = 1 lsl seq_bits

let max_time = max_int asr seq_bits

(* With a tie-break perturber installed, the seq field is split into a salt
   (high bits, from the perturber) and a FIFO counter (low bits): events at
   equal times sort by salt first, FIFO among equal salts.  Salt 0 is the
   neutral value — an all-zero salt stream reproduces pure FIFO order. *)
let salt_bits = 8

let salt_limit = 1 lsl salt_bits

let counter_bits = seq_bits - salt_bits

let counter_mask = (1 lsl counter_bits) - 1

type t = {
  events : (unit -> unit) Intheap.t;
  mutable now : int;
  mutable seq : int;
  mutable tiebreak : (int -> int) option;
  mutable tiebreak_sites : int;
  mutable trace : (int -> unit) option;
      (* drain observer: called with each fired event's packed key, before
         the callback runs; [None] keeps [fire] branch-predicted and
         allocation-free. *)
}

let nop () = ()

let create () =
  { events = Intheap.create ~capacity:256 ~dummy:nop (); now = 0; seq = 0;
    tiebreak = None; tiebreak_sites = 0; trace = None }

let set_tiebreak t f = t.tiebreak <- f

let tiebreak_sites t = t.tiebreak_sites

let set_trace t f = t.trace <- f

let now t = t.now

let pending t = Intheap.length t.events

(* Renumber queued events with consecutive seqs starting from 0.  Draining
   the queue yields ascending (time, seq) order, so reassigning seq by drain
   position preserves the relative order exactly.

   With a tie-break perturber installed the seq field is split: the high
   [salt_bits] are ordering salt, not FIFO position, and a later same-time
   push will carry its own salt.  Renumbering across the full field would
   clobber the salt with drain position, so a rebased event would compare
   against that later push by position instead of by salt.  Preserve the
   time and salt bits and renumber only the FIFO counter, restarting it at
   each (time, salt) boundary — same-(time, salt) events are contiguous in
   drain order, so relative order is preserved, and every renumbered
   counter stays below the fresh [t.seq = n] that later pushes truncate
   from. *)
let rebase t =
  let n = Intheap.length t.events in
  let keys = Array.make n 0 and fns = Array.make n nop in
  for i = 0 to n - 1 do
    keys.(i) <- Intheap.min_key t.events;
    fns.(i) <- Intheap.pop_exn t.events
  done;
  (match t.tiebreak with
  | None ->
      (* pure-FIFO keys: the whole [seq_bits] field is drain position *)
      for i = 0 to n - 1 do
        Intheap.push t.events
          (((keys.(i) asr seq_bits) lsl seq_bits) lor i)
          fns.(i)
      done
  | Some _ ->
      let counter = ref 0 in
      for i = 0 to n - 1 do
        (* [time lsl salt_bits lor salt]: everything above the counter *)
        let ts = keys.(i) asr counter_bits in
        if i > 0 && keys.(i - 1) asr counter_bits <> ts then counter := 0;
        Intheap.push t.events
          ((ts lsl counter_bits) lor (!counter land counter_mask))
          fns.(i);
        incr counter
      done);
  t.seq <- n

let at t time fn =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.at: scheduling at %d which is before now=%d" time
         t.now);
  if time > max_time then
    invalid_arg
      (Printf.sprintf "Engine.at: time %d exceeds the %d-bit budget" time
         (Sys.int_size - 1 - seq_bits));
  if t.seq >= seq_limit then rebase t;
  (match t.tiebreak with
  | None -> Intheap.push t.events ((time lsl seq_bits) lor t.seq) fn
  | Some salt_of ->
      (* perturbed tie-breaking: same-time events sort by salt, then FIFO.
         The counter is truncated to its bit budget; a collision between
         far-apart coexisting events merely makes their order salt-driven,
         which is exactly what perturbation permits. *)
      let salt = salt_of t.tiebreak_sites land (salt_limit - 1) in
      t.tiebreak_sites <- t.tiebreak_sites + 1;
      Intheap.push t.events
        ((time lsl seq_bits) lor (salt lsl counter_bits)
        lor (t.seq land counter_mask))
        fn);
  t.seq <- t.seq + 1

let after t delay fn =
  (* [t.now + delay] silently wraps past max_int for huge delays, landing
     either negative (caught by [at] with a misleading "before now") or,
     for delays past 2*max_int - now, back among valid times; reject the
     overflow here with both operands named.  [max_time < max_int], so
     every non-wrapping overflow is also caught. *)
  if delay > max_time - t.now then
    invalid_arg
      (Printf.sprintf
         "Engine.after: delay %d from now=%d overflows the schedulable time \
          budget (max %d)"
         delay t.now max_time);
  at t (t.now + delay) fn

let next_event_time t =
  if Intheap.is_empty t.events then max_int
  else Intheap.min_key t.events asr seq_bits

let skip_to t time =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.skip_to: target %d is before now=%d" time t.now);
  if time > next_event_time t then
    invalid_arg
      (Printf.sprintf
         "Engine.skip_to: target %d is past the next queued event at %d" time
         (next_event_time t));
  t.now <- time

(* Shared fast path for step/run/run_until: fire the minimum event whose
   key the caller already peeked — the single queue read both entry
   points used to duplicate. *)
let fire t key =
  t.now <- key asr seq_bits;
  (match t.trace with None -> () | Some f -> f key);
  let fn = Intheap.pop_exn t.events in
  (* FIFO order only matters among coexisting events: restart the tie
     counter whenever the queue drains so it can never overflow in
     steady-state workloads. *)
  if Intheap.is_empty t.events then t.seq <- 0;
  fn ()

let step t =
  if Intheap.is_empty t.events then false
  else begin
    fire t (Intheap.min_key t.events);
    true
  end

let run t = while step t do () done

let rec run_until t ~limit =
  if Intheap.is_empty t.events then true
  else begin
    let key = Intheap.min_key t.events in
    if key asr seq_bits > limit then false
    else begin
      fire t key;
      run_until t ~limit
    end
  end
