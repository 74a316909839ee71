module Inttbl = Tt_util.Inttbl

type t = {
  entries : int;
  miss_penalty : int;
  present : unit Inttbl.t;
  order : int Queue.t; (* FIFO of inserted keys; may contain flushed keys *)
  (* most recently used key, known present, so a repeated access skips the
     table; [no_key] when unset.  Replacement order is [order]'s alone. *)
  mutable mru : int;
  mutable hits : int;
  mutable misses : int;
}

let no_key = min_int

let create ?(entries = 64) ~miss_penalty () =
  { entries; miss_penalty; present = Inttbl.create 128;
    order = Queue.create (); mru = no_key; hits = 0; misses = 0 }

let probe t key = Inttbl.mem t.present key

let rec evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some victim ->
      (* Stale queue entries (flushed pages) are skipped. *)
      if Inttbl.mem t.present victim then begin
        Inttbl.remove t.present victim;
        if victim = t.mru then t.mru <- no_key
      end
      else evict_one t

let access t key =
  if key = t.mru then begin
    t.hits <- t.hits + 1;
    0
  end
  else if Inttbl.mem t.present key then begin
    t.hits <- t.hits + 1;
    t.mru <- key;
    0
  end
  else begin
    t.misses <- t.misses + 1;
    if Inttbl.length t.present >= t.entries then evict_one t;
    Inttbl.replace t.present key ();
    Queue.add key t.order;
    t.mru <- key;
    t.miss_penalty
  end

let flush_entry t key =
  if key = t.mru then t.mru <- no_key;
  Inttbl.remove t.present key

let flush_all t =
  t.mru <- no_key;
  Inttbl.reset t.present;
  Queue.clear t.order

let hits t = t.hits

let misses t = t.misses
