type scheme =
  | Ecmp
  | Adaptive
  | Random_spray
  | Psn_spray_only
  | Themis of { compensation : bool }
  | Reps
  | Prime
  | Sprinklers
  | Spritz

let scheme_to_string = function
  | Ecmp -> "ecmp"
  | Adaptive -> "adaptive"
  | Random_spray -> "random-spray"
  | Psn_spray_only -> "psn-spray-only"
  | Themis { compensation = true } -> "themis"
  | Themis { compensation = false } -> "themis-nocomp"
  | Reps -> "reps"
  | Prime -> "prime"
  | Sprinklers -> "sprinklers"
  | Spritz -> "spritz"

let scheme_of_string = function
  | "ecmp" -> Ok Ecmp
  | "adaptive" | "ar" -> Ok Adaptive
  | "random-spray" | "spray" -> Ok Random_spray
  | "psn-spray-only" -> Ok Psn_spray_only
  | "themis" -> Ok (Themis { compensation = true })
  | "themis-nocomp" -> Ok (Themis { compensation = false })
  | "reps" -> Ok Reps
  | "prime" -> Ok Prime
  | "sprinklers" -> Ok Sprinklers
  | "spritz" -> Ok Spritz
  | s -> Error (Printf.sprintf "unknown scheme %S" s)

type params = {
  fabric : Leaf_spine.params;
  scheme : scheme;
  nic : Rnic.config;
  buffer_capacity : int;
  per_port_cap : int;
  ecn_enabled : bool;
  pfc : Switch.pfc_config option;
  queue_factor : float;
  last_hop_jitter : Sim_time.t;
  seed : int;
  telemetry : bool;
      (** Install a fresh global {!Telemetry} context in {!build} and run a
          periodic {!Sampler} over port queues and QP in-flight bytes. *)
  telemetry_interval : Sim_time.t;  (** Sampler cadence. *)
}

let default_params ~fabric ~scheme =
  {
    fabric;
    scheme;
    nic = Rnic.default_config ~line_rate:fabric.Leaf_spine.host_bw;
    buffer_capacity = 64 * 1024 * 1024;
    per_port_cap = 9 * 1024 * 1024;
    ecn_enabled = true;
    pfc = None;
    queue_factor = 1.5;
    last_hop_jitter = Sim_time.zero;
    seed = 42;
    telemetry = false;
    telemetry_interval = Sim_time.us 20;
  }

type t = {
  engine : Engine.t;
  params : params;
  fabric : Leaf_spine.t;
  routing : Routing.t;
  switches : (int, Switch.t) Hashtbl.t;
  nics : Rnic.t array;  (* indexed by host node id (hosts are numbered first) *)
  link_ports : (int, Port.t * Port.t) Hashtbl.t;
  mutable themis_ds : Themis_d.t list;
  mutable themis_ss : Themis_s.t list;
  mutable themis_active : bool;
  sampler : Sampler.t option;
}

let lb_of_scheme = function
  | Ecmp -> Lb_policy.Ecmp
  | Adaptive -> Lb_policy.Adaptive
  | Random_spray -> Lb_policy.Random_spray
  | Psn_spray_only -> Lb_policy.Psn_spray
  | Themis _ ->
      (* Data packets are steered by Themis-S; the policy below only
         applies to control packets and after a failure fallback. *)
      Lb_policy.Ecmp
  | Reps -> Lb_policy.Reps
  | Prime -> Lb_policy.Prime
  | Sprinklers -> Lb_policy.Sprinklers
  | Spritz -> Lb_policy.Spritz

(* Last-hop RTT bound for sizing the Themis-D ring: two propagation
   delays plus a data and a control serialization time (control packets
   ride the priority lane, so no data-queueing term enters). *)
let last_hop_rtt (p : params) =
  let bw = p.fabric.Leaf_spine.host_bw in
  let mtu_wire = p.nic.Rnic.mtu + Headers.data_overhead in
  (2 * p.fabric.Leaf_spine.link_delay)
  + Rate.tx_time bw ~bytes_:mtu_wire
  + Rate.tx_time bw ~bytes_:Headers.ack_bytes

let build (params : params) =
  let engine = Engine.create () in
  if params.telemetry then ignore (Telemetry.enable ());
  let fabric = Leaf_spine.build params.fabric in
  let topo = fabric.Leaf_spine.topo in
  let routing = Routing.compute topo in
  let root_rng = Rng.create ~seed:params.seed in
  let n_hosts = Array.length fabric.Leaf_spine.hosts in
  let nics =
    Array.init n_hosts (fun host ->
        Rnic.create ~engine ~node:host ~config:params.nic)
  in
  let switches = Hashtbl.create 64 in
  let switch_cfg ~bw =
    {
      Switch.lb = lb_of_scheme params.scheme;
      ecn = (if params.ecn_enabled then Some (Ecn.scaled_to bw) else None);
      buffer_capacity = params.buffer_capacity;
      per_port_cap = params.per_port_cap;
      fwd_delay = Sim_time.zero;
      pfc = params.pfc;
      ecmp_shift = 0;
    }
  in
  let add_switch node ~bw =
    let sw =
      Switch.create ~engine ~topo ~routing ~node ~config:(switch_cfg ~bw)
        ~rng:(Rng.split root_rng)
    in
    Hashtbl.replace switches node sw
  in
  Array.iter
    (fun leaf -> add_switch leaf ~bw:params.fabric.Leaf_spine.host_bw)
    fabric.Leaf_spine.leaves;
  Array.iter
    (fun spine -> add_switch spine ~bw:params.fabric.Leaf_spine.fabric_bw)
    fabric.Leaf_spine.spines;
  let link_ports = Hashtbl.create 64 in
  let t =
    {
      engine;
      params;
      fabric;
      routing;
      switches;
      nics;
      link_ports;
      themis_ds = [];
      themis_ss = [];
      themis_active = false;
      sampler =
        (if params.telemetry then
           Some (Sampler.create ~engine ~interval:params.telemetry_interval)
         else None);
    }
  in
  (* Themis middleware on every ToR. *)
  (match params.scheme with
  | Themis { compensation } ->
      let paths = Leaf_spine.n_paths fabric in
      let queue_capacity =
        Psn_queue.capacity_for ~bw:params.fabric.Leaf_spine.host_bw
          ~rtt:(last_hop_rtt params)
          ~mtu:(params.nic.Rnic.mtu + Headers.data_overhead)
          ~factor:params.queue_factor
      in
      Array.iter
        (fun leaf ->
          let sw = Hashtbl.find switches leaf in
          let themis_s =
            Themis_s.create ~paths ~mode:Themis_s.Direct_egress
          in
          let themis_d =
            Themis_d.create ~paths ~queue_capacity ~compensation ~node:leaf
              ~clock:(fun () -> Engine.now engine)
              ~inject_nack:(fun ~conn ~conn_id ~sport ~epsn ->
                let pkt =
                  Packet_pool.nack ~conn ~conn_id ~sport ~epsn
                    ~birth:(Engine.now engine)
                in
                Switch.inject sw pkt)
              ()
          in
          t.themis_ds <- themis_d :: t.themis_ds;
          t.themis_ss <- themis_s :: t.themis_ss;
          Switch.set_themis sw ~s:(Some themis_s) ~d:(Some themis_d))
        fabric.Leaf_spine.leaves;
      t.themis_active <- true
  | Ecmp | Adaptive | Random_spray | Psn_spray_only | Reps | Prime
  | Sprinklers | Spritz ->
      ());
  (* Wiring: one Port per link direction.  The delivery target is
     resolved here, once per port, so per-packet delivery is a direct
     call instead of a hashtable lookup per hop. *)
  let deliver_to node =
    if Topology.is_host topo node then begin
      let nic = nics.(node) in
      fun pkt -> Rnic.receive nic pkt
    end
    else begin
      let sw = Hashtbl.find switches node in
      fun pkt -> Switch.receive sw pkt
    end
  in
  let inbound_ports = Hashtbl.create 64 in
  (* switch node -> ports transmitting towards it (for PFC) *)
  let note_inbound node port =
    if not (Topology.is_host topo node) then
      Hashtbl.replace inbound_ports node
        (port :: (Option.value ~default:[] (Hashtbl.find_opt inbound_ports node)))
  in
  for link_id = 0 to Topology.link_count topo - 1 do
    let link = Topology.link topo link_id in
    let make_dir src dst =
      let port =
        Port.create ~engine ~bandwidth:link.Topology.bandwidth
          ~delay:link.Topology.delay
          ~label:(Printf.sprintf "%d->%d" src dst)
      in
      Port.set_deliver port (deliver_to dst);
      note_inbound dst port;
      (if Topology.is_host topo src then begin
         Rnic.set_port nics.(src) port;
         if params.last_hop_jitter > 0 then
           Port.set_jitter port ~rng:(Rng.split root_rng)
             ~max:params.last_hop_jitter
       end
       else Switch.attach_port (Hashtbl.find switches src) ~link_id ~peer:dst port);
      port
    in
    let pab = make_dir link.Topology.a link.Topology.b in
    let pba = make_dir link.Topology.b link.Topology.a in
    Hashtbl.replace link_ports link_id (pab, pba)
  done;
  Hashtbl.iter
    (fun node sw ->
      match Hashtbl.find_opt inbound_ports node with
      | Some ports -> Switch.set_upstream_ports sw ports
      | None -> ())
    switches;
  (match t.sampler with
  | None -> ()
  | Some s ->
      (* Probe registration order feeds the engine's event stream:
         iterate links in id order, not hashtable order, so two builds
         of the same params schedule byte-identical runs. *)
      for link_id = 0 to Topology.link_count topo - 1 do
        match Hashtbl.find_opt link_ports link_id with
        | None -> ()
        | Some (pab, pba) ->
            List.iter
              (fun p ->
                Sampler.add_probe s ~name:"port_queue_bytes"
                  ~labels:[ ("port", Port.label p) ]
                  ~histogram:"port_queue_bytes_dist" (fun () ->
                    float_of_int (Port.queue_bytes p)))
              [ pab; pba ]
      done;
      Sampler.start s);
  t

let engine t = t.engine
let params t = t.params

let link_ports_pair t ~link_id = Hashtbl.find_opt t.link_ports link_id
let sampler t = t.sampler
let fabric t = t.fabric
let routing t = t.routing
let nic t ~host = t.nics.(host)
let switch t ~node = Hashtbl.find t.switches node

let tor_switches t =
  Array.to_list
    (Array.map (fun leaf -> Hashtbl.find t.switches leaf) t.fabric.Leaf_spine.leaves)

(* All switches, by ascending node id — a deterministic order for
   oracle sweeps. *)
let switches_list t =
  Hashtbl.fold (fun node sw acc -> (node, sw) :: acc) t.switches []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let iter_ports t f =
  for link_id = 0 to Topology.link_count t.fabric.Leaf_spine.topo - 1 do
    match Hashtbl.find_opt t.link_ports link_id with
    | None -> ()
    | Some (pab, pba) ->
        f pab;
        f pba
  done

let nics_list t = Array.to_list t.nics

let n_paths t = Leaf_spine.n_paths t.fabric

let connect t ~src ~dst =
  let qp = Rnic.connect t.nics.(src) ~dst:t.nics.(dst) () in
  (* Handshake interception: the destination ToR learns the QP. *)
  let dst_tor = Leaf_spine.tor_of_host t.fabric dst in
  (match Switch.themis_d (Hashtbl.find t.switches dst_tor) with
  | Some d -> Themis_d.register_flow d (Rnic.qp_conn qp)
  | None -> ());
  (match t.sampler with
  | None -> ()
  | Some s ->
      let sender = Rnic.qp_sender qp in
      let mtu = t.params.nic.Rnic.mtu in
      Sampler.add_probe s ~name:"qp_inflight_bytes"
        ~labels:
          [ ("conn", Format.asprintf "%a" Flow_id.pp (Rnic.qp_conn qp)) ]
        ~histogram:"qp_inflight_bytes_dist" (fun () ->
          float_of_int (Sender.outstanding sender * mtu)));
  qp

let run ?until t = Engine.run ?until t.engine
let now t = Engine.now t.engine

(* Count spines that still have every ToR link alive; the shrink-pathset
   mode can keep spraying only over fully symmetric survivors. *)
let live_spine_count t =
  let topo = t.fabric.Leaf_spine.topo in
  Array.fold_left
    (fun acc spine ->
      let all_up =
        Array.for_all
          (fun leaf ->
            match Topology.link_between topo leaf spine with
            | Some l -> (Topology.link topo l).Topology.up
            | None -> false)
          t.fabric.Leaf_spine.leaves
      in
      if all_up then acc + 1 else acc)
    0 t.fabric.Leaf_spine.spines

let fail_link ?(mode = `Fallback_ecmp) t ~link_id =
  Topology.set_link_up t.fabric.Leaf_spine.topo ~link_id false;
  if Telemetry.enabled () then begin
    Telemetry.incr_counter "link_failures";
    Telemetry.record ~time:(Engine.now t.engine)
      (Event.Link_failure { link_id })
  end;
  (match Hashtbl.find_opt t.link_ports link_id with
  | Some (pab, pba) ->
      Port.set_up pab false;
      Port.set_up pba false
  | None -> ());
  Routing.recompute t.routing;
  if t.themis_active then
    match mode with
    | `Fallback_ecmp ->
        t.themis_active <- false;
        List.iter
          (fun sw ->
            Switch.set_themis sw ~s:None ~d:None;
            Switch.set_lb sw Lb_policy.Ecmp)
          (tor_switches t)
    | `Shrink_pathset ->
        (* Section 6 future work: keep spraying over the surviving
           symmetric path subset instead of reverting to ECMP. *)
        let live = live_spine_count t in
        if live < 1 then begin
          t.themis_active <- false;
          List.iter
            (fun sw ->
              Switch.set_themis sw ~s:None ~d:None;
              Switch.set_lb sw Lb_policy.Ecmp)
            (tor_switches t)
        end
        else begin
          List.iter (fun s -> Themis_s.set_paths s live) t.themis_ss;
          List.iter (fun d -> Themis_d.set_paths d live) t.themis_ds
        end

let themis_active t = t.themis_active

(* Adversarial-path scenario: derate every leaf<->spine link of one
   spine (both directions), leaving topology and routing untouched —
   the paths survive but serialize slower, which is exactly the
   asymmetry that breaks load-oblivious spraying. *)
let set_spine_rate t ~spine ~gbps =
  let topo = t.fabric.Leaf_spine.topo in
  if spine < 0 || spine >= Array.length t.fabric.Leaf_spine.spines then
    invalid_arg "Network.set_spine_rate: spine index out of range";
  let spine_node = t.fabric.Leaf_spine.spines.(spine) in
  let rate = Rate.gbps (float_of_int gbps) in
  Array.iter
    (fun leaf ->
      match Topology.link_between topo leaf spine_node with
      | None -> ()
      | Some link_id -> (
          match Hashtbl.find_opt t.link_ports link_id with
          | Some (pab, pba) ->
              Port.set_bandwidth pab rate;
              Port.set_bandwidth pba rate
          | None -> ()))
    t.fabric.Leaf_spine.leaves

(* Transient failure recovery: bring a failed link back.  The Themis
   middleware is NOT re-enabled — the paper's fallback is one-way until
   the operator re-arms it — but ECMP routing reconverges so flows can
   use the link again. *)
let restore_link t ~link_id =
  Topology.set_link_up t.fabric.Leaf_spine.topo ~link_id true;
  (match Hashtbl.find_opt t.link_ports link_id with
  | Some (pab, pba) ->
      Port.set_up pab true;
      Port.set_up pba true
  | None -> ());
  Routing.recompute t.routing

type themis_totals = {
  nacks_seen : int;
  nacks_blocked : int;
  nacks_forwarded_valid : int;
  nacks_forwarded_underflow : int;
  compensation_sent : int;
  compensation_cancelled : int;
  queue_overwrites : int;
}

let themis_totals t =
  match t.themis_ds with
  | [] -> None
  | ds ->
      let z =
        {
          nacks_seen = 0;
          nacks_blocked = 0;
          nacks_forwarded_valid = 0;
          nacks_forwarded_underflow = 0;
          compensation_sent = 0;
          compensation_cancelled = 0;
          queue_overwrites = 0;
        }
      in
      Some
        (List.fold_left
           (fun acc d ->
             let s = Themis_d.stats d in
             {
               nacks_seen = acc.nacks_seen + s.Themis_d.nacks_seen;
               nacks_blocked = acc.nacks_blocked + s.Themis_d.nacks_blocked;
               nacks_forwarded_valid =
                 acc.nacks_forwarded_valid + s.Themis_d.nacks_forwarded_valid;
               nacks_forwarded_underflow =
                 acc.nacks_forwarded_underflow
                 + s.Themis_d.nacks_forwarded_underflow;
               compensation_sent =
                 acc.compensation_sent + s.Themis_d.compensation_sent;
               compensation_cancelled =
                 acc.compensation_cancelled + s.Themis_d.compensation_cancelled;
               queue_overwrites =
                 acc.queue_overwrites + Themis_d.queue_overwrites d;
             })
           z ds)

let sum_nics t f = Array.fold_left (fun acc nic -> acc + f nic) 0 t.nics

let total_data_packets t = sum_nics t Rnic.data_packets_sent
let total_retx_packets t = sum_nics t Rnic.retx_packets_sent
let total_nacks_generated t = sum_nics t Rnic.nacks_sent
let total_nacks_delivered t = sum_nics t Rnic.nacks_received
let total_cnps t = sum_nics t Rnic.cnps_sent
let total_ooo_arrivals t = sum_nics t Rnic.ooo_arrivals

let sum_switches t f = Hashtbl.fold (fun _ sw acc -> acc + f sw) t.switches 0

let total_buffer_drops t = sum_switches t Switch.dropped_buffer
let total_ecn_marks t = sum_switches t Switch.ecn_marked
