let target =
  match Sys.getenv_opt "TT_DEBUG_BLOCK" with
  | Some s -> int_of_string_opt s
  | None -> None

(* [min_int] is no block key (keys are block numbers or block-base
   addresses), so with nothing traced no key matches. *)
let target_key = match target with Some k -> k | None -> min_int

(* Stands in for the formatter of a line nobody wants: applied to any
   number of arguments it returns itself, so skipping the line allocates
   nothing and never runs a [%a] printer.  Once the format's arguments
   are used up, the caller receives this closure as the line's [unit]
   result and discards it, as it would discard [()]. *)
let rec discard _ = Obj.magic discard

let print fmt = Printf.ksprintf prerr_endline fmt

(* [log] takes [key] alone and answers with a closed function, so even a
   caller that does not know its arity (another module, built without
   cross-module information) applies it without building a partial
   application. *)
let log ~key = if key = target_key then print else Obj.magic discard

let pool_debug_flag =
  ref
    (match Sys.getenv_opt "TT_POOL_DEBUG" with
    | Some ("1" | "true") -> true
    | Some _ | None -> false)

let set_pool_debug b = pool_debug_flag := b

let pool_debug () = !pool_debug_flag
