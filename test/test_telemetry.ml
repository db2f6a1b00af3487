(* The telemetry subsystem: log-bucketed histograms, the metric registry,
   the bounded event ring, and — the acceptance gate — agreement between
   the telemetry read-out and the simulator's own counters on the
   motivation workload. *)

(* ---------------- Histogram ---------------- *)

let test_bucket_boundaries () =
  let h = Histogram.create ~min_value:1. ~max_value:1e6 () in
  (* Every recorded value must land in the bucket whose [lower, upper)
     range contains it. *)
  let check v =
    let i = Histogram.bucket_index h v in
    let lo = Histogram.bucket_lower h i and hi = Histogram.bucket_upper h i in
    if not (lo <= v && v < hi) then
      Alcotest.failf "value %g landed in bucket %d = [%g, %g)" v i lo hi
  in
  check 1.;
  check 1.0001;
  check 2.;
  check 3.1415;
  check 1000.;
  check 999_999.;
  (* Exact bucket boundaries belong to the bucket they open. *)
  for i = 1 to Histogram.bucket_count h - 2 do
    check (Histogram.bucket_lower h i)
  done

let test_under_overflow () =
  let h = Histogram.create ~min_value:1. ~max_value:100. () in
  Alcotest.(check int) "underflow" 0 (Histogram.bucket_index h 0.5);
  Alcotest.(check int) "negative underflows" 0 (Histogram.bucket_index h (-3.));
  Alcotest.(check int)
    "overflow" (Histogram.bucket_count h - 1)
    (Histogram.bucket_index h 1e9)

let test_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check (float 0.)) "sum" 0. (Histogram.sum h);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Histogram.mean h));
  Alcotest.(check bool) "p50 nan" true
    (Float.is_nan (Histogram.percentile h 0.5))

let test_percentile_monotone () =
  let h = Histogram.create ~min_value:1. ~max_value:1e9 () in
  (* Deterministic pseudo-random stream (LCG). *)
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12_345) land 0x3FFFFFFF;
    float_of_int (1 + (!state mod 1_000_000))
  in
  for _ = 1 to 10_000 do
    Histogram.record h (next ())
  done;
  let ps = [ 0.; 0.1; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ] in
  let vs = List.map (Histogram.percentile h) ps in
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
        if a > b then Alcotest.failf "percentiles not monotone: %g > %g" a b;
        check_sorted rest
    | _ -> ()
  in
  check_sorted vs;
  List.iter
    (fun v ->
      Alcotest.(check bool) "within observed range" true
        (v >= Histogram.min_recorded h && v <= Histogram.max_recorded h))
    vs;
  (* With ~9% bucket resolution the median of U[1, 1e6] must be within a
     bucket's width of 500k. *)
  let p50 = Histogram.percentile h 0.5 in
  Alcotest.(check bool) "p50 plausible" true (p50 > 3.5e5 && p50 < 6.5e5)

let test_merge () =
  let a = Histogram.create ~min_value:1. ~max_value:1e6 () in
  let b = Histogram.create ~min_value:1. ~max_value:1e6 () in
  List.iter (Histogram.record a) [ 1.; 10.; 100. ];
  List.iter (Histogram.record b) [ 5.; 50.; 500.; 5000. ];
  let m = Histogram.copy a in
  Histogram.merge ~into:m b;
  Alcotest.(check int) "count adds" 7 (Histogram.count m);
  Alcotest.(check (float 1e-9)) "sum adds" 5666. (Histogram.sum m);
  Alcotest.(check (float 1e-9)) "min" 1. (Histogram.min_recorded m);
  Alcotest.(check (float 1e-9)) "max" 5000. (Histogram.max_recorded m);
  (* Shape mismatch is a programming error. *)
  let c = Histogram.create ~min_value:2. ~max_value:1e6 () in
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Histogram.merge: incompatible bucket layouts") (fun () ->
      Histogram.merge ~into:m c)

(* ---------------- Ring ---------------- *)

let test_ring_drop_oldest () =
  let r = Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Ring.push r i
  done;
  Alcotest.(check (list int)) "keeps newest" [ 7; 8; 9; 10 ] (Ring.to_list r);
  Alcotest.(check int) "dropped" 6 (Ring.dropped r);
  Alcotest.(check int) "length" 4 (Ring.length r);
  Ring.clear r;
  Alcotest.(check bool) "cleared" true (Ring.is_empty r)

(* ---------------- Registry ---------------- *)

let test_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~labels:[ ("verdict", "valid") ] "nacks" in
  Metrics.incr c;
  Metrics.add c 2;
  let c2 = Metrics.counter m ~labels:[ ("verdict", "blocked") ] "nacks" in
  Metrics.incr c2;
  Alcotest.(check int) "by labels" 3
    (Metrics.counter_value m ~labels:[ ("verdict", "valid") ] "nacks");
  (* Label order must not matter for identity. *)
  let c' =
    Metrics.counter m ~labels:[ ("verdict", "valid") ] "nacks"
  in
  Metrics.incr c';
  Alcotest.(check int) "same handle" 4
    (Metrics.counter_value m ~labels:[ ("verdict", "valid") ] "nacks");
  Alcotest.(check int) "total over labels" 5 (Metrics.counter_total m "nacks");
  Alcotest.(check int) "absent counter" 0 (Metrics.counter_value m "nope");
  (* Type mismatch on an existing name+labels is rejected. *)
  (try
     ignore (Metrics.gauge m ~labels:[ ("verdict", "valid") ] "nacks");
     Alcotest.fail "type mismatch accepted"
   with Invalid_argument _ -> ())

let test_counter_handle () =
  (* A handle follows the current context: it resolves in each fresh
     context, counts nothing while disabled, and [register_handle]
     exports the counter at zero. *)
  let h = Telemetry.counter_handle ~labels:[ ("port", "p0") ] "drops" in
  Telemetry.disable ();
  Telemetry.incr_handle h;
  Telemetry.register_handle h;
  let c1 = Telemetry.enable () in
  Telemetry.register_handle h;
  let m1 = Telemetry.metrics_exn () in
  Alcotest.(check int) "registered at zero" 1 (Metrics.cardinality m1);
  Telemetry.incr_handle h;
  Telemetry.incr_handle h;
  Telemetry.incr_counter ~labels:[ ("port", "p0") ] "drops";
  Alcotest.(check int) "same counter as by-name" 3
    (Metrics.counter_value m1 ~labels:[ ("port", "p0") ] "drops");
  ignore (Telemetry.enable ());
  Telemetry.incr_handle h;
  Alcotest.(check int) "fresh context" 1
    (Metrics.counter_value (Telemetry.metrics_exn ()) ~labels:[ ("port", "p0") ]
       "drops");
  Telemetry.use c1;
  Telemetry.incr_handle h;
  Alcotest.(check int) "back to the first context" 4
    (Metrics.counter_value m1 ~labels:[ ("port", "p0") ] "drops");
  Telemetry.disable ()

(* ---------------- Events through the global context ---------------- *)

let test_event_sink () =
  let ctx = Telemetry.enable ~event_capacity:8 () in
  let conn = Flow_id.make ~src:0 ~dst:1 ~qpn:7 in
  for psn = 0 to 19 do
    Telemetry.record ~time:(Sim_time.ns psn)
      (Event.Retransmission { conn; psn })
  done;
  Telemetry.record ~time:(Sim_time.ns 100)
    (Event.Flow_complete { conn; bytes = 42; fct_us = 1.5 });
  Alcotest.(check int) "ring bounded" 8 (Telemetry.events_retained ctx);
  Alcotest.(check int) "dropped counted" 13 (Telemetry.events_dropped ctx);
  Alcotest.(check int) "per-kind totals survive overwrites" 20
    (Telemetry.event_count ctx (Event.kind_index (Event.Retransmission { conn; psn = 0 })));
  (* The JSONL export emits one line per retained event. *)
  let jsonl = Export.events_to_jsonl ctx in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  Alcotest.(check int) "jsonl lines" 8 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is a json object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  Telemetry.disable ();
  Alcotest.(check bool) "disabled" false (Telemetry.enabled ())

(* ---------------- Agreement with the simulator's own counters -------- *)

let test_agreement_with_experiment () =
  let r =
    Experiment.run_motivation
      {
        Experiment.default_motivation with
        Experiment.msg_bytes = 500_000;
        scheme = Network.Themis { compensation = true };
        telemetry = true;
      }
  in
  let s =
    match r.Experiment.telemetry with
    | Some s -> s
    | None -> Alcotest.fail "telemetry summary missing"
  in
  Alcotest.(check int) "nacks generated" r.Experiment.nacks_generated
    s.Experiment.tele_nacks_generated;
  Alcotest.(check int) "flows completed" r.Experiment.flows
    s.Experiment.tele_flows_completed;
  (* Retransmission counters: the run-wide ratio the experiment reports
     must equal the telemetry counters' ratio exactly. *)
  Alcotest.(check bool) "data packets seen" true (s.Experiment.tele_data_packets > 0);
  Alcotest.(check (float 1e-12))
    "retx ratio" r.Experiment.avg_retx_ratio
    (float_of_int s.Experiment.tele_retx_packets
    /. float_of_int s.Experiment.tele_data_packets);
  (* Themis-D verdicts and compensation. *)
  (match r.Experiment.motivation_themis with
  | None -> Alcotest.fail "themis totals missing under the Themis scheme"
  | Some tt ->
      Alcotest.(check int) "valid NACKs" tt.Network.nacks_forwarded_valid
        s.Experiment.tele_nacks_valid;
      Alcotest.(check int) "blocked NACKs" tt.Network.nacks_blocked
        s.Experiment.tele_nacks_blocked;
      Alcotest.(check int) "underflow NACKs" tt.Network.nacks_forwarded_underflow
        s.Experiment.tele_nacks_underflow;
      Alcotest.(check int) "compensation sent" tt.Network.compensation_sent
        s.Experiment.tele_comp_sent;
      Alcotest.(check int) "compensation cancelled" tt.Network.compensation_cancelled
        s.Experiment.tele_comp_cancelled);
  (* FCT distribution: sane and bounded by the run's completion time. *)
  Alcotest.(check bool) "p50 positive" true (s.Experiment.tele_fct_p50_us > 0.);
  Alcotest.(check bool) "p50 <= p99" true
    (s.Experiment.tele_fct_p50_us <= s.Experiment.tele_fct_p99_us);
  Alcotest.(check bool) "p99 <= completion" true
    (s.Experiment.tele_fct_p99_us <= r.Experiment.completion_us +. 1e-6);
  Telemetry.disable ()

let test_disabled_is_free () =
  Telemetry.disable ();
  (* Recording into a disabled context must be a no-op, not an error. *)
  Telemetry.incr_counter "nothing";
  Telemetry.observe "nothing" 1.;
  Telemetry.record ~time:Sim_time.zero (Event.Link_failure { link_id = 0 });
  let r =
    Experiment.run_motivation
      { Experiment.default_motivation with Experiment.msg_bytes = 200_000 }
  in
  Alcotest.(check bool) "no summary without the flag" true
    (r.Experiment.telemetry = None)

let () =
  Alcotest.run "telemetry"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "under/overflow" `Quick test_under_overflow;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "percentile monotone" `Quick test_percentile_monotone;
          Alcotest.test_case "merge" `Quick test_merge;
        ] );
      ( "ring",
        [ Alcotest.test_case "drop oldest" `Quick test_ring_drop_oldest ] );
      ( "registry",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "counter handle" `Quick test_counter_handle;
        ] );
      ( "events", [ Alcotest.test_case "bounded sink" `Quick test_event_sink ] );
      ( "agreement",
        [
          Alcotest.test_case "motivation counters" `Slow
            test_agreement_with_experiment;
          Alcotest.test_case "disabled is free" `Slow test_disabled_is_free;
        ] );
    ]
