(* One benchmark run per process (`run`), or the back-to-back purity
   self-test (`selftest`).  A run prints one JSON line: its host timings,
   GC figures, layer counts, span times when traced, and the correctness
   fingerprint that run.py compares across runs and against the pinned
   values. *)

let now_ns = Tracer.now_ns
let s_of_ns ns = float_of_int ns /. 1e9

type measured = {
  outcome : Workloads.outcome;
  net : Network.t;
  fingerprint : (string * int) list;
  build_s : float;
  launch_s : float;
  wall_s : float;
  spans_in_run_s : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  top_heap_words : int;
}

let themis_totals net =
  Option.value (Network.themis_totals net)
    ~default:
      { Network.nacks_seen = 0; nacks_blocked = 0; nacks_forwarded_valid = 0;
        nacks_forwarded_underflow = 0; compensation_sent = 0;
        compensation_cancelled = 0; queue_overwrites = 0 }

let fingerprint net (o : Workloads.outcome) =
  let t = themis_totals net in
  [
    ("events", Engine.events_processed (Network.engine net));
    ("data_pkts", Network.total_data_packets net);
    ("retx_pkts", Network.total_retx_packets net);
    ("nacks_generated", Network.total_nacks_generated net);
    ("nacks_seen", t.Network.nacks_seen);
    ("nacks_blocked", t.Network.nacks_blocked);
    ("nacks_valid", t.Network.nacks_forwarded_valid);
    ("nacks_underflow", t.Network.nacks_forwarded_underflow);
    ("comp_sent", t.Network.compensation_sent);
    ("comp_cancelled", t.Network.compensation_cancelled);
    ("buffer_drops", Network.total_buffer_drops net);
    ("cnps", Network.total_cnps net);
    ("failed_ops", o.Workloads.failed_ops);
    ("sim_end_ns", o.Workloads.sim_end_ns);
    ("fct_p50_ns", o.Workloads.fct_p50_ns);
    ("fct_p99_ns", o.Workloads.fct_p99_ns);
  ]

let measure (wl : Workloads.t) ~seed ~traced ~telemetry =
  Workloads.reset_globals ();
  if telemetry then ignore (Telemetry.enable ());
  Tracer.reset ();
  let t0 = now_ns () in
  let net = Network.build (wl.Workloads.params ~seed) in
  let t1 = now_ns () in
  if traced then Tracer.install net;
  let t2 = now_ns () in
  let drive = wl.Workloads.launch net ~connect_span:traced in
  let t3 = now_ns () in
  let gc0 = Gc.quick_stat () in
  let spans0 = Tracer.total_ns () in
  let r0 = now_ns () in
  let outcome = drive () in
  let r1 = now_ns () in
  let spans1 = Tracer.total_ns () in
  let gc1 = Gc.quick_stat () in
  {
    outcome;
    net;
    fingerprint = fingerprint net outcome;
    build_s = s_of_ns (t1 - t0);
    launch_s = s_of_ns (t3 - t2);
    wall_s = s_of_ns (r1 - r0);
    spans_in_run_s = s_of_ns (spans1 - spans0);
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    top_heap_words = gc1.Gc.top_heap_words;
  }

(* ------------------------------------------------------------------ *)
(* Layer figures *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let counts m =
  let net = m.net in
  let engine = Network.engine net in
  let events = Engine.events_processed engine in
  let data = Network.total_data_packets net in
  let wheel, heap = Engine.sched_stats engine in
  let tx = ref 0 and drops = ref 0 in
  Network.iter_ports net (fun p ->
      tx := !tx + Port.tx_packets p;
      drops := !drops + Port.dropped_packets p);
  let t = themis_totals net in
  let reused, fresh = Packet_pool.stats () in
  let tele_events =
    match Telemetry.ctx () with
    | None -> 0
    | Some c -> List.fold_left (fun acc (_, n) -> acc + n) 0 (Telemetry.events_by_kind c)
  in
  let i = float_of_int in
  [
    ("engine.events", i events);
    ("engine.events_per_pkt", ratio events data);
    ("engine.wheel_hit_ratio", ratio wheel (wheel + heap));
    ("port.tx_pkts", i !tx);
    ("port.drops", i !drops);
    ("switch.buffer_drops", i (Network.total_buffer_drops net));
    ("switch.ecn_marks", i (Network.total_ecn_marks net));
    ("themis_d.nacks_seen", i t.Network.nacks_seen);
    ("themis_d.block_ratio", ratio t.Network.nacks_blocked t.Network.nacks_seen);
    ("themis_d.comp_sent", i t.Network.compensation_sent);
    ("themis_d.queue_overwrites", i t.Network.queue_overwrites);
    ("rnic.retx_ratio", ratio (Network.total_retx_packets net) data);
    ("rnic.ooo_arrivals", i (Network.total_ooo_arrivals net));
    ("dcqcn.cnps", i (Network.total_cnps net));
    ("packet_pool.reuse_ratio", ratio reused (reused + fresh));
    ("workload.qps_created", i m.outcome.Workloads.qps_created);
    ("telemetry.events", i tele_events);
  ]
  @ m.outcome.Workloads.extra

let spans () =
  List.concat_map
    (fun (s : Tracer.span) ->
      [
        (s.Tracer.name ^ ".calls", float_of_int s.Tracer.calls);
        (s.Tracer.name ^ ".self_s", s_of_ns s.Tracer.self_ns);
        ( s.Tracer.name ^ ".ns_per_call",
          if s.Tracer.calls = 0 then 0.
          else float_of_int s.Tracer.self_ns /. float_of_int s.Tracer.calls );
      ])
    Tracer.reported

(* ------------------------------------------------------------------ *)
(* JSON line *)

let json_num v = Campaign_json.Num v
let json_obj kvs = Campaign_json.Obj (List.map (fun (k, v) -> (k, json_num v)) kvs)

let report (wl : Workloads.t) ~seed ~traced ~telemetry ~crosscheck =
  let fields =
    match measure wl ~seed ~traced ~telemetry with
    | exception e ->
        [ ("ok", Campaign_json.Bool false);
          ("error", Campaign_json.Str (Printexc.to_string e));
          ("failed_ops", json_num (float_of_int wl.Workloads.ops)) ]
    | m ->
        let heap_mb =
          float_of_int (m.top_heap_words * (Sys.word_size / 8)) /. 1048576.
        in
        let data = Network.total_data_packets m.net in
        let per_pkt w = w /. float_of_int (max 1 data) in
        let layers =
          counts m
          @ [
              ("setup.build_s", m.build_s);
              ("setup.launch_s", m.launch_s);
              ("gc.minor_words_per_pkt", per_pkt m.minor_words);
              ("gc.promoted_words_per_pkt", per_pkt m.promoted_words);
              ("gc.major_collections", float_of_int m.major_collections);
            ]
          @
          if traced then
            spans () @ [ ("engine.self_s", m.wall_s -. m.spans_in_run_s) ]
          else []
        in
        let check =
          if not crosscheck then []
          else
            let r =
              match wl.Workloads.crosscheck ~seed m.net m.outcome with
              | r -> r
              | exception e -> Error (Printexc.to_string e)
            in
            [ ("crosscheck",
               Campaign_json.Str (match r with Ok () -> "ok" | Error e -> e)) ]
        in
        [
          ("ok", Campaign_json.Bool true);
          ("failed_ops", json_num (float_of_int m.outcome.Workloads.failed_ops));
          ("wall_s", json_num m.wall_s);
          ("setup_s", json_num (m.build_s +. m.launch_s));
          ("data_pkts", json_num (float_of_int data));
          ("peak_heap_mb", json_num heap_mb);
          ("fingerprint", json_obj (List.map (fun (k, v) -> (k, float_of_int v)) m.fingerprint));
          ("layers", json_obj layers);
        ]
        @ check
  in
  let doc =
    Campaign_json.Obj
      ([
         ("workload", Campaign_json.Str wl.Workloads.name);
         ("seed", json_num (float_of_int seed));
         ("traced", Campaign_json.Bool traced);
         ("telemetry", Campaign_json.Bool telemetry);
         ("ops", json_num (float_of_int wl.Workloads.ops));
         ("ocaml", Campaign_json.Str Sys.ocaml_version);
       ]
      @ fields)
  in
  print_endline (Campaign_json.to_string doc)

(* ------------------------------------------------------------------ *)
(* Self-test: two back-to-back runs in one process give the same
   fingerprint, tracing does not perturb it, and (where the telemetry
   context is on) neither does telemetry. *)

let selftest () =
  let failures = ref 0 in
  let check name ok =
    Printf.printf "  %-44s %s\n" name (if ok then "ok" else "FAILED");
    if not ok then incr failures
  in
  List.iter
    (fun (wl : Workloads.t) ->
      let seed = 5 in
      let run ~traced ~telemetry = (measure wl ~seed ~traced ~telemetry).fingerprint in
      let first = run ~traced:false ~telemetry:wl.Workloads.telemetry in
      let second = run ~traced:false ~telemetry:wl.Workloads.telemetry in
      let traced = run ~traced:true ~telemetry:wl.Workloads.telemetry in
      let n = wl.Workloads.name in
      check (n ^ ": every op completes") (List.assoc "failed_ops" first = 0);
      check (n ^ ": back-to-back runs agree") (first = second);
      check (n ^ ": traced equals untraced") (first = traced);
      if wl.Workloads.telemetry then
        check (n ^ ": telemetry off equals on")
          (first = run ~traced:false ~telemetry:false))
    Workloads.small;
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)

let calibrate () =
  let s, sum = Calib.measure () in
  print_endline
    (Campaign_json.to_string
       (Campaign_json.Obj
          [ ("calib_s", json_num s); ("checksum", json_num (float_of_int sum)) ]))

let usage () =
  prerr_endline
    "usage: bench run --workload {allreduce|incast|short-flows} --seed N \
     [--traced] [--telemetry-off] [--crosscheck]\n       bench calibrate\n       \
     bench selftest";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "selftest" ] -> selftest ()
  | [ "calibrate" ] -> calibrate ()
  | "run" :: args ->
      let workload = ref None and seed = ref None in
      let traced = ref false and telemetry_off = ref false and crosscheck = ref false in
      let rec parse = function
        | [] -> ()
        | "--workload" :: w :: rest ->
            workload := Workloads.find w;
            if !workload = None then usage ();
            parse rest
        | "--seed" :: s :: rest ->
            seed := int_of_string_opt s;
            if !seed = None then usage ();
            parse rest
        | "--traced" :: rest -> traced := true; parse rest
        | "--telemetry-off" :: rest -> telemetry_off := true; parse rest
        | "--crosscheck" :: rest -> crosscheck := true; parse rest
        | _ -> usage ()
      in
      parse args;
      (match (!workload, !seed) with
      | Some wl, Some seed ->
          report wl ~seed ~traced:!traced
            ~telemetry:(wl.Workloads.telemetry && not !telemetry_off)
            ~crosscheck:!crosscheck
      | _ -> usage ())
  | _ -> usage ()
