(* The reference work, written against the standard library only, so that
   no change to the simulator moves it, and allocation-free.  It has two
   parts: integer work on a binary heap and a 512 KB table, which fit the
   processor's private caches, and independent random updates of a 4 MB
   table, which spill out of them.  On the host this benchmark was tuned
   on, the sum of the two tracked the simulator's speed better than either
   part alone, on all three workloads. *)

let table = Array.make (1 lsl 16) 0
let heap = Array.make 4096 0
let sift_steps = 10_000

let big : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 19) in
  Bigarray.Array1.fill b 0;
  b

let big_steps = 15_000

let sift () =
  let x = ref 12345 and acc = ref 0 in
  let size = Array.length heap in
  for i = 0 to size - 1 do
    heap.(i) <- i
  done;
  for _ = 1 to sift_steps do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let r = !x in
    (* replace the heap's minimum and sift it down *)
    let v = heap.(0) + 1 + (r land 1023) in
    let i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      if l >= size then go := false
      else
        let c = if l + 1 < size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < v then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else go := false
    done;
    heap.(!i) <- v;
    let j = (r lsr 4) land (Array.length table - 1) in
    table.(j) <- table.(j) + v;
    acc := !acc + table.((j * 7) land (Array.length table - 1))
  done;
  !acc

let scatter () =
  let x = ref 777 and acc = ref 0 in
  let mask = Bigarray.Array1.dim big - 1 in
  for _ = 1 to big_steps do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = (!x lxor (!x lsr 9)) land mask in
    Bigarray.Array1.unsafe_set big j (Bigarray.Array1.unsafe_get big j + 1);
    acc := !acc + Bigarray.Array1.unsafe_get big ((j * 7) land mask)
  done;
  !acc

let chunk_ns () =
  let t0 = Cursor.now_ns () in
  ignore (Sys.opaque_identity (sift ()));
  ignore (Sys.opaque_identity (scatter ()));
  Cursor.now_ns () - t0

let reference_ns = 2_500_000.0

let scale ns ~before ~after =
  float_of_int ns *. reference_ns *. 2.0 /. float_of_int (before + after)

let slice_ns = 40_000_000

type t = {
  clock : unit -> int;
  chunk : unit -> int;
  mutable slice_start : int;
  mutable before : int;
  mutable raw_ns : int;
  mutable scaled_ns : float;
  mutable chunk_times : int list;
}

let start ?(clock = Cursor.now_ns) ?(chunk = chunk_ns) () =
  let before = chunk () in
  { clock; chunk; slice_start = clock (); before; raw_ns = 0; scaled_ns = 0.0;
    chunk_times = [ before ] }

let close s =
  let slice = s.clock () - s.slice_start in
  let after = s.chunk () in
  s.raw_ns <- s.raw_ns + slice;
  s.scaled_ns <- s.scaled_ns +. scale slice ~before:s.before ~after;
  s.before <- after;
  s.chunk_times <- after :: s.chunk_times;
  s.slice_start <- s.clock ()

let tick s = if s.clock () - s.slice_start >= slice_ns then close s
let stop s = close s
let raw_ns s = s.raw_ns
let scaled_ns s = s.scaled_ns

let median_chunk_ns s =
  (Summary.of_list (List.map float_of_int s.chunk_times)).Summary.median
