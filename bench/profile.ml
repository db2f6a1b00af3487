(* Flat per-function profile of one benchmark workload.

     dune exec bench/profile.exe -- <incast|allreduce|short-flows> [--seed N]

   A timer-signal sampler (prof_stubs.c) records the interrupted program
   counter 10000 times per second of host time while the library's own
   runner executes the workload: [Experiment.run_incast] (64 -> 1,
   2 MB per sender), [Campaign_runner.run_job] on the paper-scale Fig. 5
   allreduce job line, or [Workload_run.run] (50k fixed 4 KiB Poisson
   flows at 80% load on the small fabric).  The samples are symbolized
   against `nm -n` of this executable (PCs in shared libraries are
   attributed to the library) and printed as a flat table by function
   and by module.  It measures host time, so it is not part of `make
   check`. *)

external prof_start : int -> unit = "prof_start"
external prof_stop : unit -> int = "prof_stop"
external prof_sample : int -> int = "prof_sample"
external prof_anchor : unit -> int = "prof_anchor"

let themis = Network.Themis { compensation = true }

let short_flows_spec seed : Workload_spec.t =
  {
    Workload_spec.wseed = seed;
    shape = Workload_spec.small_fabric;
    dist = Flow_size.Fixed 4096;
    arrival = Arrival.Poisson;
    load_pct = 80;
    n_flows = 50_000;
    colls = [];
    failures = [];
    deadline_ns = Sim_time.sec 10;
  }

let workloads =
  [
    ( "incast",
      fun seed ->
        ignore
          (Experiment.run_incast
             {
               Experiment.fanin = 64;
               incast_bytes = 2_000_000;
               incast_scheme = themis;
               incast_seed = seed;
             }) );
    ( "allreduce",
      fun seed ->
        match
          Campaign_spec.job_of_string
            (Printf.sprintf
               "cj1;fig5;fab=paper;scheme=themis;coll=allreduce;mb=1;ti=900;td=4;seed=%d"
               seed)
        with
        | Ok job -> ignore (Campaign_runner.run_job job)
        | Error e -> failwith e );
    ( "short-flows",
      fun seed ->
        ignore (Workload_run.run ~scheme:"themis" (short_flows_spec seed)) );
  ]

(* ---------------- symbolization ---------------- *)

let read_lines cmd args =
  let ic = Unix.open_process_args_in cmd (Array.of_list (cmd :: args)) in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> failwith (cmd ^ " failed")

(* Text symbols of [exe], sorted by address. *)
let text_symbols exe =
  read_lines "nm" [ "-n"; "--defined-only"; exe ]
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | [ addr; ("T" | "t" | "W" | "w"); name ] ->
             Some (int_of_string ("0x" ^ addr), name)
         | _ -> None)
  |> Array.of_list

(* Executable mappings of this process: (start, end, file). *)
let mappings () =
  let ic = open_in "/proc/self/maps" in
  let rec go acc =
    match input_line ic with
    | l -> (
        match String.split_on_char ' ' l |> List.filter (( <> ) "") with
        | range :: perms :: _ :: _ :: _ :: file :: _ when perms.[2] = 'x' -> (
            (* The kernel's vsyscall page lies above max_int; skip it. *)
            match
              List.map
                (fun h -> int_of_string_opt ("0x" ^ h))
                (String.split_on_char '-' range)
            with
            | [ Some a; Some b ] -> go ((a, b, file) :: acc)
            | _ -> go acc)
        | _ -> go acc)
    | exception End_of_file -> List.rev acc
  in
  let m = go [] in
  close_in ic;
  m

(* "camlEngine.take_512" -> "Engine.take"; anonymous functions keep
   their number, C symbols their name. *)
let demangle name =
  let n = String.length name in
  if n > 4 && String.sub name 0 4 = "caml" && Char.uppercase_ascii name.[4] = name.[4]
     && name.[4] <> '_'
  then begin
    let s = String.sub name 4 (n - 4) in
    match String.rindex_opt s '_' with
    | Some i
      when i + 1 < String.length s
           && String.for_all
                (fun c -> c >= '0' && c <= '9')
                (String.sub s (i + 1) (String.length s - i - 1))
           && not (i >= 4 && String.sub s (i - 4) 4 = ".fun") ->
        String.sub s 0 i
    | _ -> s
  end
  else name

let module_of fn =
  match String.index_opt fn '.' with
  | Some i when fn.[0] <> '[' && fn.[0] <> '_' && Char.uppercase_ascii fn.[0] = fn.[0] ->
      String.sub fn 0 i
  | _ -> "[runtime, C]"

(* Greatest symbol address <= [pc] in the sorted array. *)
let lookup syms pc =
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if fst syms.(mid) <= pc then go mid hi else go lo mid
  in
  if Array.length syms = 0 || pc < fst syms.(0) then None
  else Some (snd syms.(go 0 (Array.length syms)))

let table title counts total top =
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
    |> List.sort (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)
  in
  Printf.printf "\n%9s %6s  %s\n" "samples" "%" title;
  List.iteri
    (fun i (k, v) ->
      if i < top then
        Printf.printf "%9d %5.1f%%  %s\n" v
          (100. *. float_of_int v /. float_of_int total)
          k)
    rows

let () =
  let usage = "profile.exe <incast|allreduce|short-flows> [--seed N]" in
  let workload = ref None and seed = ref 3 and hz = 10_000 in
  Arg.parse
    [ ("--seed", Arg.Set_int seed, "N simulation seed (default 3)") ]
    (fun w -> workload := Some w)
    usage;
  let name, run =
    match !workload with
    | Some w when List.mem_assoc w workloads -> (w, List.assoc w workloads)
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let t0 = Unix.gettimeofday () in
  prof_start hz;
  run !seed;
  let n = prof_stop () in
  let wall = Unix.gettimeofday () -. t0 in
  let exe = Sys.executable_name in
  let syms = text_symbols exe in
  let maps = mappings () in
  (* Load offset of this executable: [prof_anchor]'s runtime address
     minus its address in the symbol table. *)
  let slide =
    match Array.find_opt (fun (_, s) -> s = "prof_anchor") syms with
    | Some (a, _) -> prof_anchor () - a
    | None -> failwith "profile: prof_anchor not in the symbol table"
  in
  let by_fn = Hashtbl.create 256 and by_mod = Hashtbl.create 64 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  for i = 0 to n - 1 do
    let pc = prof_sample i in
    let fn =
      match List.find_opt (fun (a, b, _) -> pc >= a && pc < b) maps with
      | Some (_, _, file) when file <> exe && Filename.basename file <> Filename.basename exe ->
          "[" ^ Filename.basename file ^ "]"
      | Some _ -> (
          match lookup syms (pc - slide) with Some s -> demangle s | None -> "[unknown]")
      | None -> "[unmapped]"
    in
    bump by_fn fn;
    bump by_mod (module_of fn)
  done;
  Printf.printf "profile: %s seed %d, %d samples at %d Hz over %.3f s\n" name
    !seed n hz wall;
  if n > 0 then begin
    table "function" by_fn n 40;
    table "module" by_mod n max_int
  end
