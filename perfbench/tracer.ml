(* Per-layer spans recorded from outside the simulator: every directed
   port's delivery callback is wrapped (as Fuzz_fault does) and timed,
   classified by the receiving node, the sending end and the packet
   kind.  Nested spans are handled generically: a span's self time is
   its duration minus the time of spans that ran inside it. *)

(* Monotonic nanoseconds; Unix.gettimeofday has microsecond resolution,
   coarser than one packet delivery. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = { name : string; mutable calls : int; mutable self_ns : int }

let mk name = { name; calls = 0; self_ns = 0 }

(* Deliveries into a ToR from a host (Themis-S spray + forward, NACKs
   into Themis-D, other control), into a ToR from a spine, into a
   spine, and into a NIC by packet kind. *)
let tor_up_data = mk "switch.tor_up_data"
let tor_up_ctrl = mk "switch.tor_up_ctrl"
let tor_down = mk "switch.tor_down"
let spine = mk "switch.spine"
let nack_in = mk "themis_d.nack_in"
let rnic_data = mk "rnic.data"
let rnic_ack = mk "rnic.ack"
let rnic_nack = mk "rnic.nack"
let rnic_cnp = mk "rnic.cnp"

(* Deliveries no reported span covers (PFC pause frames, aggregation
   tiers); kept so the engine's self time stays exact. *)
let other = mk "other"
let connect = mk "net.connect"

let reported =
  [ tor_up_data; tor_up_ctrl; tor_down; spine; nack_in; rnic_data; rnic_ack;
    rnic_nack; rnic_cnp; connect ]

let all = other :: reported

let reset () =
  List.iter
    (fun s ->
      s.calls <- 0;
      s.self_ns <- 0)
    all

(* Time covered by spans that started inside the currently open span. *)
let child_ns = ref 0

let span s f x =
  let saved = !child_ns in
  child_ns := 0;
  let t0 = now_ns () in
  let r = f x in
  let dt = now_ns () - t0 in
  s.calls <- s.calls + 1;
  s.self_ns <- s.self_ns + dt - !child_ns;
  child_ns := saved + dt;
  r

let total_ns () = List.fold_left (fun acc s -> acc + s.self_ns) 0 all

let nic_span (pkt : Packet.t) =
  match pkt.Packet.kind with
  | Packet.Data _ -> rnic_data
  | Packet.Ack _ -> rnic_ack
  | Packet.Nack _ -> rnic_nack
  | Packet.Cnp -> rnic_cnp
  | Packet.Pause _ -> other

let tor_from_host_span (pkt : Packet.t) =
  match pkt.Packet.kind with
  | Packet.Data _ -> tor_up_data
  | Packet.Nack _ -> nack_in
  | Packet.Ack _ | Packet.Cnp | Packet.Pause _ -> tor_up_ctrl

(* The kind is read before delivering: pooled packets are recycled
   inside delivery. *)
let wrap port ~classify =
  let base = Port.deliver_fn port in
  Port.set_deliver port (fun pkt -> span (classify pkt) base pkt)

let install net =
  let topo = (Network.fabric net).Leaf_spine.topo in
  let kind n = (Topology.node topo n).Topology.kind in
  let wrap_dir port ~src ~dst =
    let fixed s = wrap port ~classify:(fun _ -> s) in
    match (kind dst, kind src) with
    | Topology.Host, _ -> wrap port ~classify:nic_span
    | Topology.Tor, Topology.Host -> wrap port ~classify:tor_from_host_span
    | Topology.Tor, Topology.Spine -> fixed tor_down
    | Topology.Spine, _ -> fixed spine
    | _ -> fixed other
  in
  for link_id = 0 to Topology.link_count topo - 1 do
    match Network.link_ports_pair net ~link_id with
    | None -> ()
    | Some (ab, ba) ->
        let l = Topology.link topo link_id in
        wrap_dir ab ~src:l.Topology.a ~dst:l.Topology.b;
        wrap_dir ba ~src:l.Topology.b ~dst:l.Topology.a
  done
