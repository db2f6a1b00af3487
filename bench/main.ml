(* The benchmark harness.

   Two layers:

   1. Figure/table reproduction — for every table and figure in the
      paper's evaluation, a target that regenerates the corresponding
      rows/series from the simulator (see DESIGN.md's per-experiment
      index).  Absolute numbers come from this repository's behavioural
      models rather than the authors' NS-3 build; the shapes (who wins,
      by how much, where crossovers fall) are the reproduction target.

   2. Bechamel micro-benchmarks of the data-plane primitives a Tofino
      implementation would care about (per-packet spray decision, ring
      push, NACK validation, PathMap rewrite, event-queue churn).

   Usage: main.exe [fig1b|fig1c|fig1d|fig5a|fig5b|table1|ablations|micro|all]
   (default: all). *)

let section title =
  Format.printf "@.==================== %s ====================@." title

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every figure run is also filed into the
   campaign result store (content-addressed by its canonical job
   string), so bench runs seed the same BENCH_*.json perf trajectory
   the campaign orchestrator reads and gates against. *)

let store =
  lazy
    (Campaign_store.open_
       ~dir:
         (match Sys.getenv_opt "THEMIS_RESULT_DIR" with
         | Some d -> d
         | None -> "_campaign"))

let saved = ref 0

let save_result r =
  Campaign_store.save (Lazy.force store) r;
  incr saved

let report_saved () =
  if !saved > 0 then
    Format.printf "@.[store] %d result(s) filed under %s/@." !saved
      (Campaign_store.dir (Lazy.force store))

(* ------------------------------------------------------------------ *)
(* Figure 1: motivation experiment                                     *)
(* ------------------------------------------------------------------ *)

let transport_name = function `Sr -> "sr" | `Gbn -> "gbn" | `Ideal -> "ideal"

let motivation_cache : (Rnic.transport * Experiment.motivation_result) list ref =
  ref []

(* The default motivation config, run through the campaign runner so the
   stored JSON carries the same store key a `fig1` campaign would use. *)
let motivation transport =
  match List.assoc_opt transport !motivation_cache with
  | Some r -> r
  | None ->
      let r, result =
        Campaign_runner.fig1 ~transport:(transport_name transport) ~mb:10
          ~seed:Experiment.default_motivation.Experiment.seed
      in
      save_result result;
      motivation_cache := (transport, r) :: !motivation_cache;
      r

let fig1b () =
  section "Fig. 1b: retransmission ratio over time (NIC-SR + random spraying)";
  let r = motivation `Sr in
  Format.printf "time(us)    retx_ratio@.";
  List.iter
    (fun (t, v) -> Format.printf "%8.0f    %.4f@." t v)
    r.Experiment.retx_series;
  Format.printf "average ratio: %.3f   (paper: 0.16)@." r.Experiment.avg_retx_ratio

let fig1c () =
  section "Fig. 1c: sending rate over time (NIC-SR + random spraying)";
  let r = motivation `Sr in
  Format.printf "time(us)    rate(Gbps)@.";
  List.iter
    (fun (t, v) -> Format.printf "%8.0f    %6.1f@." t v)
    r.Experiment.rate_series;
  Format.printf "average rate: %.1f Gbps of 100 (paper: 86)@."
    r.Experiment.avg_rate_gbps

let fig1d () =
  section "Fig. 1d: average flow throughput, NIC-SR vs Ideal";
  let sr = motivation `Sr in
  let ideal = motivation `Ideal in
  Format.printf "%-18s %12s@." "reliable transport" "throughput";
  Format.printf "%-18s %9.2f Gbps   (paper: 68.09)@." "NIC-SR"
    sr.Experiment.avg_goodput_gbps;
  Format.printf "%-18s %9.2f Gbps   (paper: 95.43)@." "Ideal"
    ideal.Experiment.avg_goodput_gbps;
  Format.printf
    "@.decomposition (Section 2.2): %.0f%% sending rate x %.0f%% useful = %.0f%% of ideal@."
    (sr.Experiment.avg_rate_gbps /. 100. *. 100.)
    ((1. -. sr.Experiment.avg_retx_ratio) *. 100.)
    (sr.Experiment.avg_goodput_gbps /. ideal.Experiment.avg_goodput_gbps *. 100.)

(* ------------------------------------------------------------------ *)
(* Figure 5: collectives x DCQCN sweep                                 *)
(* ------------------------------------------------------------------ *)

let fig5 coll ~mb title =
  section title;
  Format.printf
    "fabric: 8x8 leaf-spine, 400 Gbps, 8 groups of 8 NICs, %d MB per group@." mb;
  Format.printf
    "(paper scale is 16x16 / 300 MB: run `themis_cli fig5 --paper-scale` for it)@.@.";
  Format.printf "%-14s" "scheme";
  List.iter
    (fun (ti, td) -> Format.printf "  TI=%-3.0f,TD=%-3.0f" ti td)
    Experiment.dcqcn_sweep;
  Format.printf "   tail CT (ms)@.";
  let tails = Hashtbl.create 8 in
  List.iter
    (fun scheme ->
      Format.printf "%-14s" (Network.scheme_to_string scheme);
      List.iter
        (fun (ti_us, td_us) ->
          let r, result =
            Campaign_runner.fig5 ~fabric:Campaign_spec.Eval8
              ~scheme:(Network.scheme_to_string scheme)
              ~coll:(Experiment.coll_to_string coll)
              ~mb ~ti_us:(int_of_float ti_us) ~td_us:(int_of_float td_us)
              ~seed:11
          in
          save_result result;
          Hashtbl.replace tails (Network.scheme_to_string scheme, ti_us, td_us)
            r.Experiment.tail_ct_ms;
          Format.printf "  %12.3f" r.Experiment.tail_ct_ms)
        Experiment.dcqcn_sweep;
      Format.printf "@.")
    Experiment.fig5_schemes;
  (* The paper's headline: Themis' reduction vs adaptive routing. *)
  let reductions =
    List.filter_map
      (fun (ti, td) ->
        match
          ( Hashtbl.find_opt tails ("adaptive", ti, td),
            Hashtbl.find_opt tails ("themis", ti, td) )
        with
        | Some ar, Some th when ar > 0. -> Some (100. *. (ar -. th) /. ar)
        | _ -> None)
      Experiment.dcqcn_sweep
  in
  match (reductions, List.rev reductions) with
  | lo :: _, hi :: _ ->
      let min_r = List.fold_left Stdlib.min lo reductions in
      let max_r = List.fold_left Stdlib.max hi reductions in
      Format.printf
        "@.Themis vs adaptive routing: %.1f%% ~ %.1f%% lower tail completion time@."
        min_r max_r
  | _ -> ()

let fig5a () =
  fig5 Experiment.Allreduce ~mb:4
    "Fig. 5a: Allreduce tail completion time (paper: 15.6%~75.3%)"

(* Alltoall needs larger per-pair flows (bytes/ranks^2 each) before the
   transport dynamics bite, hence the bigger default. *)
let fig5b () =
  fig5 Experiment.Alltoall ~mb:16
    "Fig. 5b: Alltoall tail completion time (paper: 11.5%~40.7%)"

(* ------------------------------------------------------------------ *)
(* Table 1 / Section 4: memory model                                   *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1 + Section 4: switch memory overhead";
  Memory_model.pp_report Format.std_formatter Memory_model.table1

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablation: NACK compensation under real loss (Section 3.4)";
  Format.printf "%-14s %14s %9s %14s@." "compensation" "completion(us)" "timeouts"
    "comp. NACKs";
  List.iter
    (fun r ->
      Format.printf "%-14s %14.1f %9d %14d@."
        (if r.Ablation.comp_enabled then "on" else "off")
        r.Ablation.completion_us r.Ablation.timeouts r.Ablation.compensations)
    (Ablation.compensation ());
  section "Ablation: ring capacity factor F (Section 4 sizing rule)";
  Format.printf "%-8s %18s %9s %7s %14s@." "F" "underflow-forward" "blocked"
    "retx" "completion(us)";
  List.iter
    (fun r ->
      Format.printf "%-8.2f %18d %9d %7d %14.1f@." r.Ablation.factor
        r.Ablation.underflow_forwards r.Ablation.blocked r.Ablation.retx
        r.Ablation.qf_completion_us)
    (Ablation.queue_factor ());
  section "Ablation: RNIC transport generations on a sprayed workload";
  Format.printf "%-26s %12s %11s %14s@." "transport" "goodput" "retx ratio"
    "NACKs->sender";
  List.iter
    (fun r ->
      Format.printf "%-26s %8.1f Gbps %11.3f %14d@." r.Ablation.label
        r.Ablation.goodput_gbps r.Ablation.retx_ratio r.Ablation.nacks_to_sender)
    (Ablation.transports ());
  section "Ablation: ring factor F under last-hop RTT jitter (5 us)";
  Format.printf "%-8s %18s %9s %7s %14s@." "F" "underflow-forward" "blocked"
    "retx" "completion(us)";
  List.iter
    (fun r ->
      Format.printf "%-8.2f %18d %9d %7d %14.1f@." r.Ablation.factor
        r.Ablation.underflow_forwards r.Ablation.blocked r.Ablation.retx
        r.Ablation.qf_completion_us)
    (Ablation.queue_factor ~jitter:(Sim_time.us 5) ());
  section "Ablation: Eq. 4 memory model vs measured ToR state";
  (let m = Ablation.memory_footprint () in
   Format.printf "  %d cross-rack QPs: measured %d B, model %d B@."
     m.Ablation.qps m.Ablation.tor_flow_tables_bytes m.Ablation.model_bytes);
  section "Ablation: PSN spraying with vs without NACK filtering";
  Format.printf "%-26s %12s %11s %14s@." "configuration" "goodput" "retx ratio"
    "NACKs->sender";
  List.iter
    (fun r ->
      Format.printf "%-26s %8.1f Gbps %11.3f %14d@." r.Ablation.label
        r.Ablation.goodput_gbps r.Ablation.retx_ratio r.Ablation.nacks_to_sender)
    (Ablation.filtering ());
  (* File one flattened result per study alongside the tables (seed 5 is
     the Ablation default the tables above used). *)
  List.iter
    (fun study ->
      save_result
        (Campaign_runner.run_job (Campaign_spec.Ablation_job { study; seed = 5 })))
    Campaign_spec.studies_known

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (per-packet primitives)";
  let open Bechamel in
  let conn = Flow_id.make ~src:1 ~dst:2 ~qpn:3 in
  let spray_test =
    Test.make ~name:"spray: Eq.1 path decision"
      (Staged.stage (fun () ->
           ignore
             (Spray.path_for_psn ~psn:(Psn.of_int 123456) ~base:7 ~paths:256)))
  in
  let validate_test =
    Test.make ~name:"spray: Eq.3 NACK validation"
      (Staged.stage (fun () ->
           ignore
             (Spray.nack_is_valid ~tpsn:(Psn.of_int 1001) ~epsn:(Psn.of_int 998)
                ~paths:256)))
  in
  let ring = Psn_queue.create ~capacity:128 in
  let ring_counter = ref 0 in
  let ring_test =
    Test.make ~name:"psn_queue: push (ring)"
      (Staged.stage (fun () ->
           incr ring_counter;
           Psn_queue.push ring (Psn.of_int !ring_counter)))
  in
  let scan_queue = Psn_queue.create ~capacity:128 in
  let scan_counter = ref 0 in
  let scan_test =
    Test.make ~name:"psn_queue: tPSN scan (push+pop_until_greater)"
      (Staged.stage (fun () ->
           Psn_queue.push scan_queue (Psn.of_int (!scan_counter + 3));
           Psn_queue.push scan_queue (Psn.of_int !scan_counter);
           ignore
             (Psn_queue.pop_until_greater scan_queue (Psn.of_int !scan_counter));
           scan_counter := !scan_counter + 4))
  in
  let map = Path_map.build ~paths:256 in
  let pathmap_test =
    Test.make ~name:"path_map: sport rewrite"
      (Staged.stage (fun () ->
           ignore (Path_map.rewrite map ~sport:0xBEEF ~delta_path:37)))
  in
  let hash_test =
    Test.make ~name:"ecmp: 5-tuple flow hash"
      (Staged.stage (fun () ->
           ignore (Ecmp_hash.flow_hash ~src:11 ~dst:22 ~sport:3333 ~dport:4791)))
  in
  (* Steady state: 1024 pending events; each op schedules one at a
     pseudo-random offset and takes and dispatches the earliest. *)
  let eng = Engine.create () in
  let eng_cb = Engine.register_callback eng (fun _ _ _ -> ()) in
  let eng_counter = ref 0 in
  let eng_add () =
    incr eng_counter;
    ignore
      (Engine.schedule_call eng
         ~delay:((!eng_counter * 2654435761) land 1023)
         eng_cb ~a:0 ~b:0 ~obj:(Obj.repr ()))
  in
  for _ = 1 to 1024 do
    eng_add ()
  done;
  let engine_test =
    Test.make ~name:"engine: schedule_call + take/dispatch"
      (Staged.stage (fun () ->
           eng_add ();
           Engine.run eng ~max_events:1))
  in
  let packet_test =
    Test.make ~name:"packet: data constructor"
      (Staged.stage (fun () ->
           ignore
             (Packet.data ~conn ~sport:9 ~psn:(Psn.of_int 5) ~payload:1500
                ~last_of_msg:false ~birth:0 ())))
  in
  (* Telemetry hot paths; the histogram record must stay under ~100 ns or
     instrumenting per-packet sites would distort the simulator. *)
  let hist = Histogram.create () in
  let hist_counter = ref 0 in
  let hist_test =
    Test.make ~name:"telemetry: histogram record"
      (Staged.stage (fun () ->
           incr hist_counter;
           Histogram.record hist (float_of_int (1 + (!hist_counter land 0xFFFF)))))
  in
  let registry = Metrics.create () in
  let cached = Metrics.counter registry "bench_counter" in
  let counter_test =
    Test.make ~name:"telemetry: counter incr (cached handle)"
      (Staged.stage (fun () -> Metrics.incr cached))
  in
  let tele_ctx = Telemetry.enable ~event_capacity:4096 () in
  ignore tele_ctx;
  let ev_counter = ref 0 in
  let event_test =
    Test.make ~name:"telemetry: event record (ring)"
      (Staged.stage (fun () ->
           incr ev_counter;
           Telemetry.record ~time:!ev_counter
             (Event.Retransmission { conn; psn = !ev_counter })))
  in
  let tests =
    [
      spray_test; validate_test; ring_test; scan_test; pathmap_test; hash_test;
      engine_test; packet_test; hist_test; counter_test; event_test;
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  Format.printf "%-48s %14s@." "primitive" "cost";
  let measured = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
              measured := (name, est) :: !measured;
              Format.printf "%-48s %10.1f ns/op@." name est
          | Some [] | None -> Format.printf "%-48s %14s@." name "n/a")
        analyzed)
    tests;
  Telemetry.disable ();
  (* Machine-dependent, so filed under a free-form id the gate ignores:
     a perf trajectory, not a regression contract. *)
  let sanitize n =
    String.map
      (fun c ->
        match Char.lowercase_ascii c with
        | ('a' .. 'z' | '0' .. '9') as c -> c
        | _ -> '_')
      n
  in
  save_result
    (Campaign_result.make_raw ~id:"bench:micro"
       ~metrics:
         (List.rev_map (fun (n, v) -> (sanitize n ^ "_ns", v)) !measured))

(* ------------------------------------------------------------------ *)

let all_targets =
  [
    ("fig1b", fig1b);
    ("fig1c", fig1c);
    ("fig1d", fig1d);
    ("fig5a", fig5a);
    ("fig5b", fig5b);
    ("table1", table1);
    ("ablations", ablations);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let targets =
    match args with
    | [] | [ "all" ] -> List.map fst all_targets
    | ts -> ts
  in
  List.iter
    (fun t ->
      match List.assoc_opt t all_targets with
      | Some f -> f ()
      | None ->
          Format.eprintf "unknown bench target %S; available: %s all@." t
            (String.concat " " (List.map fst all_targets));
          exit 2)
    targets;
  report_saved ()
