(* The three benchmark workloads, built from the simulator's public
   functions.  Each is split into the phases the benchmark times:
   [params] feeds Network.build, [launch] connects QPs and starts the
   traffic (the rest of set-up), and the closure it returns drives the
   engine through the run and its settle phase. *)

type outcome = {
  failed_ops : int;  (** Ops not complete by the deadline. *)
  sim_end_ns : int;  (** Simulated time the last op completed. *)
  fct_p50_ns : int;
  fct_p99_ns : int;
  qps_created : int;
  extra : (string * float) list;  (** Workload-only layer numbers. *)
}

type t = {
  name : string;
  ops : int;
      (** Collective groups ([allreduce]), senders ([incast]) or flows
          ([short-flows]). *)
  telemetry : bool;  (** Typed-telemetry context on, as campaign jobs run. *)
  params : seed:int -> Network.params;
  launch : Network.t -> connect_span:bool -> unit -> outcome;
  crosscheck : seed:int -> Network.t -> outcome -> (unit, string) result;
      (** Compare against the library's own runner for the same input;
          the [allreduce] check names the paper-scale campaign job. *)
}

let themis = Network.Themis { compensation = true }

(* Every run starts from the same ambient state, with the calls
   Workload_run makes. *)
let reset_globals () =
  Packet.reset_uid_counter ();
  Packet_pool.reset ();
  Flow_id.reset_interner ();
  Lb_state.reset_globals ();
  Telemetry.disable ()

let ns_of_us us = int_of_float (Float.round (us *. 1000.))

(* Nearest-rank percentile of simulated times. *)
let percentile_ns sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let summary times =
  let a = Array.of_list times in
  Array.sort compare a;
  let n = Array.length a in
  ( (if n = 0 then 0 else a.(n - 1)),
    percentile_ns a 0.5,
    percentile_ns a 0.99 )

let expect what ~want ~got =
  if want = got then Ok ()
  else Error (Printf.sprintf "%s: library %s, benchmark %s" what want got)

let rec all_ok = function
  | [] -> Ok ()
  | Ok () :: rest -> all_ok rest
  | (Error _ as e) :: _ -> e

let num = Printf.sprintf "%.17g"

let metric r name =
  match Campaign_result.metric r name with
  | Some v -> num v
  | None -> "missing"

(* ------------------------------------------------------------------ *)
(* allreduce: the campaign Fig. 5 cell at paper scale. *)

let allreduce_job ~seed =
  Printf.sprintf
    "cj1;fig5;fab=paper;scheme=themis;coll=allreduce;mb=1;ti=900;td=4;seed=%d"
    seed

let allreduce ~(fabric : Leaf_spine.params) ~mb =
  let params ~seed =
    (* Experiment.run_collective's parameters for DCQCN (TI, TD) =
       (900, 4) us. *)
    let base = Network.default_params ~fabric ~scheme:themis in
    let cc = Dcqcn.with_ti_td base.Network.nic.Rnic.cc ~ti_us:900. ~td_us:4. in
    {
      base with
      Network.nic = { base.Network.nic with Rnic.cc; cnp_interval = Sim_time.us_f 4. };
      seed;
    }
  in
  let launch net ~connect_span:_ =
    let groups = Workload.cross_rack_groups (Network.fabric net) in
    let done_at = Array.make (Array.length groups) None in
    let runs =
      Array.mapi
        (fun g members ->
          let schedule =
            Schedule.ring_allreduce ~ranks:(Array.length members)
              ~bytes:(mb * 1_000_000)
          in
          Workload.launch_group ~net ~members ~schedule ~group:g
            ~on_complete:(fun ~group time -> done_at.(group) <- Some time))
        groups
    in
    let qps_created =
      Array.fold_left (fun acc r -> acc + List.length r.Workload.qps) 0 runs
    in
    fun () ->
      Network.run net ~until:(Sim_time.sec 60);
      let times = List.filter_map Fun.id (Array.to_list done_at) in
      let sim_end_ns, fct_p50_ns, fct_p99_ns = summary times in
      {
        failed_ops = Array.length groups - List.length times;
        sim_end_ns;
        fct_p50_ns;
        fct_p99_ns;
        qps_created;
        extra = [];
      }
  in
  let crosscheck ~seed net o =
    match Campaign_spec.job_of_string (allreduce_job ~seed) with
    | Error e -> Error e
    | Ok job ->
        let r = Campaign_runner.run_job job in
        let tt =
          match Network.themis_totals net with
          | Some t -> t
          | None -> invalid_arg "allreduce: Themis not active"
        in
        let i v = num (float_of_int v) in
        all_ok
          [
            expect "tail_ct_ms" ~want:(metric r "tail_ct_ms")
              ~got:(num (Sim_time.to_ms o.sim_end_ns));
            expect "data_packets" ~want:(metric r "data_packets")
              ~got:(i (Network.total_data_packets net));
            expect "nacks_generated" ~want:(metric r "nacks_generated")
              ~got:(i (Network.total_nacks_generated net));
            expect "themis_nacks_blocked" ~want:(metric r "themis_nacks_blocked")
              ~got:(i tt.Network.nacks_blocked);
            expect "themis_comp_sent" ~want:(metric r "themis_comp_sent")
              ~got:(i tt.Network.compensation_sent);
            expect "ecn_marks" ~want:(metric r "ecn_marks")
              ~got:(i (Network.total_ecn_marks net));
          ]
  in
  {
    name = "allreduce";
    ops = fabric.Leaf_spine.hosts_per_leaf;
    telemetry = true;
    params;
    launch;
    crosscheck;
  }

(* ------------------------------------------------------------------ *)
(* incast: fanin -> 1 across the Fig. 1a fabric, all posted at t = 0. *)

let incast ~fanin ~mb =
  let params ~seed =
    let fabric =
      { Leaf_spine.motivation with Leaf_spine.hosts_per_leaf = fanin; n_spines = 4 }
    in
    { (Network.default_params ~fabric ~scheme:themis) with Network.seed }
  in
  let launch net ~connect_span =
    let ls = Network.fabric net in
    let receiver = Leaf_spine.host ls ~leaf:1 ~index:0 in
    let fcts = ref [] in
    for i = 0 to fanin - 1 do
      let src = Leaf_spine.host ls ~leaf:0 ~index:i in
      let connect src = Network.connect net ~src ~dst:receiver in
      let qp =
        if connect_span then Tracer.span Tracer.connect connect src
        else connect src
      in
      Rnic.post_send qp ~bytes:(mb * 1_000_000) ~on_complete:(fun t ->
          fcts := t :: !fcts)
    done;
    fun () ->
      Network.run net ~until:(Sim_time.sec 30);
      let sim_end_ns, _, _ = summary !fcts in
      (* FCT percentiles as Experiment.run_incast computes them. *)
      let us = Stats.Summary.create () in
      List.iter (fun t -> Stats.Summary.add us (Sim_time.to_us t)) !fcts;
      let fct p = if !fcts = [] then 0 else ns_of_us (Stats.Summary.percentile us p) in
      let fct_p50_ns = fct 0.5 and fct_p99_ns = fct 0.99 in
      {
        failed_ops = fanin - List.length !fcts;
        sim_end_ns;
        fct_p50_ns;
        fct_p99_ns;
        qps_created = fanin;
        extra = [];
      }
  in
  let crosscheck ~seed net o =
    reset_globals ();
    let r =
      Experiment.run_incast
        { Experiment.fanin; incast_bytes = mb * 1_000_000; incast_scheme = themis;
          incast_seed = seed }
    in
    let i v = string_of_int v in
    all_ok
      [
        expect "retx" ~want:(i r.Experiment.incast_retx)
          ~got:(i (Network.total_retx_packets net));
        expect "drops" ~want:(i r.Experiment.incast_drops)
          ~got:(i (Network.total_buffer_drops net));
        expect "ecn_marks" ~want:(i r.Experiment.incast_ecn_marks)
          ~got:(i (Network.total_ecn_marks net));
        expect "fct_p50_ns" ~want:(i (ns_of_us r.Experiment.fct_p50_us))
          ~got:(i o.fct_p50_ns);
        expect "fct_p99_ns" ~want:(i (ns_of_us r.Experiment.fct_p99_us))
          ~got:(i o.fct_p99_ns);
      ]
  in
  { name = "incast"; ops = fanin; telemetry = false; params; launch; crosscheck }

(* ------------------------------------------------------------------ *)
(* short-flows: open-loop Poisson arrivals of fixed 4 KiB flows at 80%
   of bisection bandwidth, driven through Flow_stream the way
   Workload_run drives them. *)

let short_spec ~n_flows ~seed : Workload_spec.t =
  {
    Workload_spec.wseed = seed;
    shape = Workload_spec.small_fabric;
    dist = Flow_size.Fixed 4096;
    arrival = Arrival.Poisson;
    load_pct = 80;
    n_flows;
    colls = [];
    failures = [];
    deadline_ns = Sim_time.sec 10;
  }

let short_fabric =
  match Workload_spec.small_fabric with
  | Fuzz_spec.Ls s ->
      {
        Leaf_spine.n_leaves = s.n_leaves;
        n_spines = s.n_spines;
        hosts_per_leaf = s.hosts_per_leaf;
        host_bw = Rate.gbps (float_of_int s.host_gbps);
        fabric_bw = Rate.gbps (float_of_int s.fabric_gbps);
        link_delay = s.link_delay_ns;
      }
  | Fuzz_spec.Ft _ -> assert false

(* Workload_run steps the engine in 5 ms slices; the benchmark uses
   finer slices so the minor words spent on the first and last tenth of
   flows can be read between them.  Slicing does not change the event
   order: the engine only stops at a horizon and resumes from it. *)
let slice = Sim_time.us 100
let settle = Sim_time.ms 3

let short_flows ~n_flows =
  let params ~seed =
    {
      (Network.default_params ~fabric:short_fabric ~scheme:themis) with
      Network.seed;
      telemetry = false;
    }
  in
  let launch net ~connect_span =
    let spec = short_spec ~n_flows ~seed:(Network.params net).Network.seed in
    let engine = Network.engine net in
    let fct = Fct.create () in
    let arrival =
      Arrival.create ~process:spec.Workload_spec.arrival
        ~load_pct:spec.Workload_spec.load_pct
        ~capacity_bps:(Leaf_spine.bisection_bw short_fabric)
        ~mean_flow_bytes:(Flow_size.mean_bytes spec.Workload_spec.dist)
    in
    let connect ~src ~dst =
      if connect_span then
        Tracer.span Tracer.connect (fun () -> Network.connect net ~src ~dst) ()
      else Network.connect net ~src ~dst
    in
    let stream =
      Flow_stream.start ~engine ~connect
        ~n_hosts:(Array.length (Network.fabric net).Leaf_spine.hosts)
        ~dist:spec.Workload_spec.dist ~arrival ~seed:spec.Workload_spec.wseed
        ~n_flows ~fct ()
    in
    fun () ->
      let deadline = spec.Workload_spec.deadline_ns in
      let tenth = max 1 (n_flows / 10) in
      let w0 = Gc.minor_words () in
      let early = ref None and late_from = ref None and late = ref None in
      let rec loop () =
        let completed = Fct.count fct in
        (if !early = None && completed >= tenth then
           early := Some ((Gc.minor_words () -. w0) /. float_of_int completed));
        (if !late_from = None && completed >= n_flows - tenth then
           late_from := Some (Gc.minor_words (), completed));
        if (not (Flow_stream.all_done stream)) && Engine.now engine < deadline
        then begin
          Network.run net ~until:(min deadline (Engine.now engine + slice));
          loop ()
        end
      in
      loop ();
      (match !late_from with
      | Some (w, c) when Fct.count fct > c ->
          late := Some ((Gc.minor_words () -. w) /. float_of_int (Fct.count fct - c))
      | _ -> ());
      if Flow_stream.all_done stream then
        Network.run net ~until:(Engine.now engine + settle);
      let stats = Flow_stream.stats stream in
      let fct_ns name = ns_of_us (List.assoc name (Fct.metrics fct)) in
      let get = Option.value ~default:0. in
      {
        failed_ops = n_flows - stats.Flow_stream.completed;
        sim_end_ns = stats.Flow_stream.last_completion_ns;
        fct_p50_ns = fct_ns "fct_p50_us";
        fct_p99_ns = fct_ns "fct_p99_us";
        qps_created = stats.Flow_stream.qps_created;
        extra =
          [
            ("workload.live_hwm", float_of_int stats.Flow_stream.live_hwm);
            ("workload.words_per_flow_early", get !early);
            ("workload.words_per_flow_late", get !late);
          ];
      }
  in
  let crosscheck ~seed net o =
    let r = Workload_run.run ~scheme:"themis" (short_spec ~n_flows ~seed) in
    let i = string_of_int in
    all_ok
      [
        expect "completed" ~want:(i r.Workload_run.r_completed)
          ~got:(i (n_flows - o.failed_ops));
        expect "data_packets" ~want:(i r.Workload_run.r_data_packets)
          ~got:(i (Network.total_data_packets net));
        expect "retx_packets" ~want:(i r.Workload_run.r_retx_packets)
          ~got:(i (Network.total_retx_packets net));
        expect "qps_created" ~want:(i r.Workload_run.r_qps_created)
          ~got:(i o.qps_created);
        expect "end_us" ~want:(num r.Workload_run.r_end_us)
          ~got:(num (Sim_time.to_us o.sim_end_ns));
        expect "fct_p99_ns"
          ~want:(i (ns_of_us (List.assoc "fct_p99_us" r.Workload_run.r_fct)))
          ~got:(i o.fct_p99_ns);
      ]
  in
  { name = "short-flows"; ops = n_flows; telemetry = false; params; launch; crosscheck }

(* ------------------------------------------------------------------ *)

let find = function
  | "allreduce" -> Some (allreduce ~fabric:Leaf_spine.paper_eval ~mb:1)
  | "incast" -> Some (incast ~fanin:64 ~mb:2)
  | "short-flows" -> Some (short_flows ~n_flows:50_000)
  | _ -> None

(* Same shapes, small enough for the `dune runtest` self-test. *)
let small =
  [
    allreduce
      ~fabric:{ Leaf_spine.paper_eval with Leaf_spine.n_leaves = 4; n_spines = 4;
                hosts_per_leaf = 4 }
      ~mb:1;
    incast ~fanin:8 ~mb:1;
    short_flows ~n_flows:2_000;
  ]
