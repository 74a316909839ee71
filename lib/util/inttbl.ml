(* A SplitMix-style finalizer on 63-bit ints: each multiply by an odd
   constant mixes low bits upward, each xor-shift folds high bits back
   down, so every key bit reaches the low bits the bucket mask keeps. *)
let hash k =
  let h = k lxor (k lsr 32) in
  let h = h * 0x1e3779b97f4a7c15 in
  let h = h lxor (h lsr 29) in
  let h = h * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 32)) land max_int

include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash = hash
end)
