(* End-to-end host-time benchmark of the Tempest/Typhoon simulator.

     dune exec -- ./perfbench/main.exe \
       --workload em3d-stache --seed 42 --seconds 30 --trace 0

   Runs one workload again and again, each run in a fresh child process
   (one at a time, one domain), until [--seconds] have passed.  Every run
   builds a fresh machine, so the modelled caches start cold, and every run
   is checked against the app's sequential oracle outside its timed
   interval.  With [--trace 0] the last line of output is a JSON object of
   the end-to-end metrics; with [--trace 1] runs alternate between untraced
   and traced, and it carries the per-layer metrics instead.  The exit
   code is non-zero when any run fails.  README.md describes the workloads,
   the metrics and how [ref_wall_s] is scaled to a reference host speed. *)

module W = Tt_perfbench.Workload
module Summary = Tt_perfbench.Summary

(* Medians over the traced runs. *)
let per_layer_traced =
  [
    ("app.self_s", "s"); ("access.calls", "count");
    ("access.inline_calls", "count"); ("access.suspended_calls", "count");
    ("access.self_s", "s"); ("access.inline_self_s", "s");
    ("access.ns_per_inline", "ns"); ("cache.hits", "count");
    ("cache.misses", "count"); ("sync.calls", "count"); ("sync.self_s", "s");
    ("event.count", "count"); ("event.per_s", "1/s"); ("event.self_s", "s");
    ("thread.suspensions", "count"); ("thread.elided", "count");
    ("thread.self_s", "s"); ("np.handled", "count");
    ("np.busy_cycles", "cycles"); ("handlers.fault_calls", "count");
    ("handlers.fault_self_s", "s"); ("handlers.ns_per_fault", "ns");
    ("net.msgs", "count"); ("net.words", "words");
    ("net.retransmits", "count"); ("flow.blocked", "count");
    ("flow.spilled", "count"); ("run.self_s", "s");
    ("layer_sum_error", "ratio");
  ]

(* Medians over the untraced runs. *)
let per_layer_untraced =
  [
    ("host.wall_s", "s"); ("host.setup_s", "s"); ("host.ref_chunk_ms", "ms");
    ("gc.minor_words", "words"); ("gc.promoted_words", "words");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
  ]

(* A child that hangs is killed by SIGALRM, which keeps a whole benchmark
   run within its time limit. *)
let child_timeout_s = 120

let iteration w ~seed ~traced =
  ignore (Unix.alarm child_timeout_s);
  match W.run w ~seed ~traced with
  | r ->
      List.iter (fun (k, v) -> Printf.printf "value %s %.17g\n" k v) r.W.values;
      List.iter (fun (k, v) -> Printf.printf "model %s %.17g\n" k v) r.W.model;
      Printf.printf "setup%s\n"
        (String.concat "" (List.map (Printf.sprintf " %.17g") r.W.setup_s));
      exit 0
  | exception e ->
      Printf.printf "error %s\n" (Printexc.to_string e);
      exit 1

type sample = {
  traced : bool;
  values : (string * float) list;
  model : (string * float) list;
  setup_s : float list;
}

let words line = String.split_on_char ' ' line |> List.filter (( <> ) "")

(* One child's output, or [Failure] if it is not what [iteration] prints. *)
let parse ~traced out =
  let s =
    ref { traced; values = []; model = []; setup_s = [] }
  in
  List.iter
    (fun line ->
      match words line with
      | [] -> ()
      | [ "value"; k; v ] -> s := { !s with values = (k, float_of_string v) :: !s.values }
      | [ "model"; k; v ] -> s := { !s with model = (k, float_of_string v) :: !s.model }
      | "setup" :: l -> s := { !s with setup_s = List.map float_of_string l }
      | _ -> failwith line)
    (String.split_on_char '\n' out);
  { !s with values = List.rev !s.values; model = List.rev !s.model }

let error_line out =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix:"error " l then
        Some (String.sub l 6 (String.length l - 6))
      else None)
    (String.split_on_char '\n' out)

let spawn w ~seed ~traced =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [| Sys.executable_name; "--iteration"; "--workload"; W.name w; "--seed";
       string_of_int seed; "--trace"; (if traced then "1" else "0") |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match (status, error_line out) with
  | _, Some msg -> Error msg
  | Unix.WEXITED 0, None -> (
      match parse ~traced out with
      | s -> Ok s
      | exception Failure _ -> Error "unreadable child output")
  | Unix.WEXITED n, None -> Error (Printf.sprintf "exited with code %d" n)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), None ->
      Error
        (if s = Sys.sigalrm then
           Printf.sprintf "no result within %d s" child_timeout_s
         else Printf.sprintf "killed by signal %d" s)

let now () = float_of_int (Tt_perfbench.Cursor.now_ns ()) *. 1e-9

(* Run until [seconds] have passed and at least [min_runs] runs are done,
   or until a run fails: the measurement has failed then, and stopping
   keeps a hung run from being followed by more.  Traced and untraced runs
   alternate when [trace] is set. *)
let collect w ~seed ~seconds ~trace =
  let min_runs = if trace then 4 else 3 in
  let start = now () in
  let rec loop i acc =
    if i >= min_runs && now () -. start >= seconds then
      List.rev acc
    else
      let traced = trace && i mod 2 = 1 in
      let r = spawn w ~seed ~traced in
      let acc = (traced, r) :: acc in
      if Result.is_error r then List.rev acc else loop (i + 1) acc
  in
  loop 0 []

(* The model-count vector most runs agree on. *)
let reference samples =
  let tally = Hashtbl.create 4 in
  List.iter
    (fun s ->
      let m = s.model in
      Hashtbl.replace tally m (1 + Option.value ~default:0 (Hashtbl.find_opt tally m)))
    samples;
  Hashtbl.fold
    (fun m n best ->
      match best with Some (_, bn) when bn >= n -> best | _ -> Some (m, n))
    tally None
  |> Option.map fst

let get key s =
  match List.assoc_opt key s.values with
  | Some v -> v
  | None -> List.assoc key s.model

let summary key samples = Summary.of_list (List.map (get key) samples)

let config_line w ~seed =
  let switches =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> String.length kv > 3 && String.sub kv 0 3 = "TT_")
  in
  Printf.sprintf "config: %s ocaml=%s nproc=%d switches=%s" (W.describe w ~seed)
    Sys.ocaml_version
    (Domain.recommended_domain_count ())
    (match switches with
    | [] -> "none"
    | l ->
        String.concat "," l
        ^ " MARKED: taken with TT_* switches set; never compare with \
           default-path results")

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let orchestrate w ~seed ~seconds ~trace =
  let results = collect w ~seed ~seconds ~trace in
  let ok = List.filter_map (fun (_, r) -> Result.to_option r) results in
  let failures =
    List.filter_map
      (fun (traced, r) ->
        match r with
        | Error msg -> Some (Printf.sprintf "%s run: %s"
                               (if traced then "traced" else "untraced") msg)
        | Ok _ -> None)
      results
  in
  let refm = reference ok in
  let agree, disagree = List.partition (fun s -> Some s.model = refm) ok in
  let failures =
    failures
    @ List.map
        (fun s ->
          Printf.sprintf "%s run: simulated counts differ from the other runs"
            (if s.traced then "traced" else "untraced"))
        disagree
  in
  let attempted = List.length results and failed = List.length failures in
  let untraced = List.filter (fun s -> not s.traced) agree
  and traced = List.filter (fun s -> s.traced) agree in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n" (W.name w)
    seed seconds (if trace then 1 else 0);
  print_endline (config_line w ~seed);
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) failures;
  let metrics = ref [] in
  let report ?(note = "") name unit value =
    metrics := (name, unit, value) :: !metrics;
    Printf.printf "  %-24s %14.6g %-13s %s\n" name value unit note
  in
  let quartiles (s : Summary.t) =
    Printf.sprintf "median of %d, q1 %.6g q3 %.6g" s.Summary.n s.Summary.q1
      s.Summary.q3
  in
  let report_median samples (name, unit) =
    if samples <> [] then
      let s = summary name samples in
      report ~note:(quartiles s) name unit s.Summary.median
  in
  if not trace then begin
    if untraced <> [] then begin
      let wall = summary "ref_wall_s" untraced in
      report "ref_wall_s" "s" wall.Summary.median ~note:(quartiles wall);
      let cycles = (summary "sim_cycles" untraced).Summary.median in
      report "sim_cycles_per_s" "cycles/s" (cycles /. wall.Summary.median)
        ~note:"sim_cycles / ref_wall_s";
      report_median untraced ("sim_cycles", "cycles");
      let setups = Summary.of_list (List.concat_map (fun s -> s.setup_s) untraced) in
      report "setup_s" "s" setups.Summary.median
        ~note:
          (Printf.sprintf "%d set-ups in each run, scaled; %s" W.setup_builds
             (quartiles setups));
      List.iter (report_median untraced)
        [ ("alloc_words_per_access", "words/access"); ("peak_heap_mb", "MB") ]
    end;
    report "pass_ratio" "ratio"
      (float_of_int (attempted - failed) /. float_of_int attempted);
    Printf.printf "  %-24s %14.6g %-13s %d of %d runs failed\n" "fail_ratio"
      (float_of_int failed /. float_of_int attempted)
      "ratio" failed attempted
  end
  else begin
    List.iter (report_median traced) per_layer_traced;
    if traced <> [] then begin
      let m k = (summary k traced).Summary.median in
      let taken = m "thread.suspensions" and elided = m "thread.elided" in
      report "thread.elided_ratio" "ratio"
        (if taken +. elided = 0.0 then 0.0 else elided /. (taken +. elided))
    end;
    List.iter (report_median untraced) per_layer_untraced;
    if traced <> [] && untraced <> [] then
      report "trace_overhead" "ratio"
        ((summary "wall_s" traced).Summary.median
        /. (summary "host.wall_s" untraced).Summary.median)
  end;
  let body =
    List.rev_map
      (fun (k, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_number v) unit)
      !metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed (String.concat ", " body);
  exit (if failed = 0 then 0 else 1)

let () =
  let workload = ref "" and seed = ref W.default_seed and seconds = ref 30.0
  and trace = ref 0 and child = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
       " one of " ^ String.concat ", " (List.map W.name W.all));
      ("--seed", Arg.Set_int seed,
       Printf.sprintf " input seed (default %d; held-out seed %d)"
         W.default_seed W.held_out_seed);
      ("--seconds", Arg.Set_float seconds, " how long to keep measuring");
      ("--trace", Arg.Set_int trace,
       " 0: end-to-end metrics; 1: per-layer metrics from traced runs");
      ("--iteration", Arg.Set child, " (internal) measure one run");
    ]
  in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  match W.find !workload with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      Arg.usage (Arg.align spec) usage;
      exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "perfbench: --trace takes 0 or 1";
      exit 2
  | Some w ->
      if !child then iteration w ~seed:!seed ~traced:(!trace = 1)
      else orchestrate w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
