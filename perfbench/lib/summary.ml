type t = { n : int; median : float; q1 : float; q3 : float }

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so the spread this benchmark reports matches the one computed
   over its printed results. *)
let quartiles sorted =
  let ld = Array.length sorted in
  let m = ld + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((sorted.(j - 1) *. float_of_int (4 - delta))
      +. (sorted.(j) *. float_of_int delta))
      /. 4.0)

let median sorted =
  let ld = Array.length sorted in
  if ld mod 2 = 1 then sorted.(ld / 2)
  else (sorted.((ld / 2) - 1) +. sorted.(ld / 2)) /. 2.0

let of_list = function
  | [] -> invalid_arg "Summary.of_list: no samples"
  | values ->
      let sorted = Array.of_list values in
      Array.sort compare sorted;
      let n = Array.length sorted in
      if n = 1 then { n; median = sorted.(0); q1 = sorted.(0); q3 = sorted.(0) }
      else
        let q = quartiles sorted in
        { n; median = median sorted; q1 = q.(0); q3 = q.(2) }
