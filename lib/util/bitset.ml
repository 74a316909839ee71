type t = { words : int array; capacity : int }

let bits_per_word = 62 (* stay clear of the OCaml int tag bit *)

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0; capacity = n }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: element out of range"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* Visit the members of one word, lowest first; [i] is the element of
   the word's bit 0. *)
let rec iter_word f i word =
  if word <> 0 then begin
    if word land 1 <> 0 then f i;
    iter_word f (i + 1) (word lsr 1)
  end

let iter f t =
  Array.iteri
    (fun w word -> if word <> 0 then iter_word f (w * bits_per_word) word)
    t.words

let to_list t =
  let acc = ref [] in
  for w = Array.length t.words - 1 downto 0 do
    let word = t.words.(w) in
    if word <> 0 then
      for b = bits_per_word - 1 downto 0 do
        if word land (1 lsl b) <> 0 then
          acc := ((w * bits_per_word) + b) :: !acc
      done
  done;
  !acc

let rec other_from words own mask w =
  w < Array.length words
  && ((if w = own then words.(w) land mask else words.(w)) <> 0
     || other_from words own mask (w + 1))

let mem_other t i =
  check t i;
  other_from t.words (i / bits_per_word)
    (lnot (1 lsl (i mod bits_per_word))) 0

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let copy t = { words = Array.copy t.words; capacity = t.capacity }

let equal a b = a.capacity = b.capacity && a.words = b.words
