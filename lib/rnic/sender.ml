type mode = Sr_retx | Gbn_retx

type config = {
  mtu : int;
  mode : mode;
  window : int;
  rto : Sim_time.t;
  cc : Dcqcn.config;
}

type msg = {
  start : int;
  packets : int;
  bytes : int;
  posted : Sim_time.t;  (* when the WQE was posted, for FCT telemetry *)
  on_complete : Sim_time.t -> unit;
}

type t = {
  engine : Engine.t;
  conn : Flow_id.t;
  conn_id : int;  (* interned [conn], cached for per-packet construction *)
  sport : int;
  cfg : config;
  cc : Dcqcn.t;
  transmit : Packet.t -> unit;
  msgs : msg Fifo.t;
  mutable next_seq : int;  (* next sequence the send loop will consider *)
  mutable max_sent : int;  (* highest sequence ever transmitted *)
  mutable una : int;  (* lowest unacknowledged sequence *)
  mutable end_seq : int;  (* first sequence beyond all posted data *)
  retx : int Fifo.t;
  retx_pending : (int, unit) Hashtbl.t;
  mutable pacing : bool;
  mutable rto_handle : Engine.handle;
  (* Pacing-gap memo: DCQCN adjusts the rate on control events, not per
     packet, and steady-state frames are one size, so the float divide in
     [Rate.tx_time] is recomputed only when (rate, size) changes.  The
     rate key starts as [nan] (never equal) so the first use computes. *)
  mutable gap_rate : float;
  mutable gap_bytes : int;
  mutable gap_ns : Sim_time.t;
  (* Closure-free pacing/RTO events (registered once per sender). *)
  mutable cb_pace : Engine.callback;
  mutable cb_rto : Engine.callback;
  mutable data_sent : int;
  mutable retx_sent : int;
  mutable nacks_rx : int;
  mutable cnps_rx : int;
  mutable timeouts : int;
  mutable bytes_completed : int;
  (* Per-packet telemetry counters, resolved once per context. *)
  tm_data_sent : Telemetry.counter_handle;
  tm_retx : Telemetry.counter_handle;
}

let conn t = t.conn
let sport t = t.sport
let rate t = Dcqcn.rate t.cc
let cc t = t.cc
let outstanding t = t.next_seq - t.una
let idle t = t.una >= t.end_seq
let data_packets_sent t = t.data_sent
let retx_packets_sent t = t.retx_sent
let nacks_received t = t.nacks_rx
let cnps_received t = t.cnps_rx
let timeouts t = t.timeouts
let bytes_completed t = t.bytes_completed

(* Locate the message containing [seq].  Only active (not fully acked)
   messages are in the ring, and retransmissions are never below [una],
   so an early-exit indexed scan over the few active messages suffices —
   no iteration closure, no option, nothing allocated. *)
let rec msg_find t seq n i =
  if i >= n then
    invalid_arg
      (Printf.sprintf
         "Sender: sequence %d not in any active message (una=%d next=%d \
          end=%d msgs=%d)"
         seq t.una t.next_seq t.end_seq n)
  else begin
    let m = Fifo.get t.msgs i in
    if seq >= m.start && seq < m.start + m.packets then m
    else msg_find t seq n (i + 1)
  end

(* Top-level recursion, not a local [let rec]: without flambda a local
   recursive function capturing [t] allocates its closure on every call,
   and this runs once per transmitted packet. *)
let msg_of t seq = msg_find t seq (Fifo.length t.msgs) 0

let rec pick_retx t =
  if Fifo.is_empty t.retx then -1
  else begin
    let seq = Fifo.pop t.retx in
    Hashtbl.remove t.retx_pending seq;
    if seq >= t.una then (seq lsl 1) lor 1 else pick_retx t
  end

let cancel_rto t =
  Engine.cancel t.engine t.rto_handle;
  t.rto_handle <- Engine.none

let rec arm_rto t =
  Engine.cancel t.engine t.rto_handle;
  t.rto_handle <-
    Engine.schedule_call t.engine ~delay:t.cfg.rto t.cb_rto ~a:0 ~b:0
      ~obj:(Obj.repr ())

and on_rto t =
  t.rto_handle <- Engine.none;
  if t.una < t.next_seq then begin
    t.timeouts <- t.timeouts + 1;
    if Telemetry.enabled () then begin
      Telemetry.incr_counter "rto_timeouts";
      Telemetry.record ~time:(Engine.now t.engine)
        (Event.Rto_timeout { conn = t.conn; una = t.una })
    end;
    (match t.cfg.mode with
    | Sr_retx ->
        if not (Hashtbl.mem t.retx_pending t.una) then begin
          Hashtbl.add t.retx_pending t.una ();
          Fifo.push t.retx t.una
        end
    | Gbn_retx ->
        t.next_seq <- t.una;
        Fifo.clear t.retx;
        Hashtbl.reset t.retx_pending);
    Dcqcn.on_timeout t.cc;
    arm_rto t;
    try_send t
  end

(* Next sequence to transmit, encoded as [(seq lsl 1) lor retx_flag], or
   -1 when nothing is sendable — the per-packet pick allocates neither
   an option nor a tuple (like [msg_find], the retransmission scan is a
   top-level recursion so no closure is built per pick). *)
and pick_next t =
  (* Retransmissions take priority; stale entries (already acked) are
     discarded on the way. *)
  let r = pick_retx t in
  if r >= 0 then r
  else if t.next_seq < t.end_seq && t.next_seq - t.una < t.cfg.window then begin
    let seq = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    seq lsl 1
  end
  else -1

and try_send t =
  if not t.pacing then begin
    let picked = pick_next t in
    if picked >= 0 then begin
        let seq = picked lsr 1 in
        let retx_queued = picked land 1 = 1 in
        (* A GBN rewind re-walks already-sent sequences through the
           "fresh" path; anything at or below the high-water mark is a
           retransmission regardless of how it was picked. *)
        let is_retx = retx_queued || seq <= t.max_sent in
        if seq > t.max_sent then t.max_sent <- seq;
        let m = msg_of t seq in
        let last = seq = m.start + m.packets - 1 in
        let payload =
          if last then m.bytes - ((m.packets - 1) * t.cfg.mtu) else t.cfg.mtu
        in
        let pkt =
          Packet_pool.data ~conn:t.conn ~conn_id:t.conn_id ~sport:t.sport
            ~psn:(Psn.of_int seq)
            ~payload ~last_of_msg:last ~retransmission:is_retx
            ~birth:(Engine.now t.engine) ()
        in
        (* [transmit] may synchronously drop (and recycle) the packet;
           everything we need from it is read before the handoff. *)
        let size = pkt.Packet.size in
        t.data_sent <- t.data_sent + 1;
        if is_retx then t.retx_sent <- t.retx_sent + 1;
        if Telemetry.enabled () then begin
          Telemetry.incr_handle t.tm_data_sent;
          if is_retx then begin
            Telemetry.incr_handle t.tm_retx;
            Telemetry.record ~time:(Engine.now t.engine)
              (Event.Retransmission { conn = t.conn; psn = seq })
          end
        end;
        Dcqcn.on_bytes_sent t.cc size;
        if not (Engine.is_pending t.engine t.rto_handle) then arm_rto t;
        t.transmit pkt;
        (* Hardware rate pacing: the next packet may leave one
           serialization time (at the DCQCN current rate) later. *)
        t.pacing <- true;
        let rate = Dcqcn.rate t.cc in
        let gap =
          if (rate :> float) = t.gap_rate && size = t.gap_bytes then t.gap_ns
          else begin
            let g = Rate.tx_time rate ~bytes_:size in
            t.gap_rate <- (rate :> float);
            t.gap_bytes <- size;
            t.gap_ns <- g;
            g
          end
        in
        ignore
          (Engine.schedule_call t.engine ~delay:gap t.cb_pace ~a:0 ~b:0
             ~obj:(Obj.repr ()))
    end
  end

let create ~engine ~conn ~sport ~config ~line_rate ~transmit =
  if config.mtu <= 0 then invalid_arg "Sender.create: mtu";
  if config.window <= 0 then invalid_arg "Sender.create: window";
  let t =
  {
    engine;
    conn;
    conn_id = Flow_id.intern conn;
    sport;
    cfg = config;
    cc = Dcqcn.create ~engine ~conn ~config:config.cc ~line_rate ();
    transmit;
    msgs = Fifo.create ~capacity:8 ();
    next_seq = 0;
    max_sent = -1;
    una = 0;
    end_seq = 0;
    retx = Fifo.create ~capacity:16 ();
    retx_pending = Hashtbl.create 16;
    pacing = false;
    rto_handle = Engine.none;
    gap_rate = Float.nan;
    gap_bytes = -1;
    gap_ns = 0;
    cb_pace = Engine.null_callback;
    cb_rto = Engine.null_callback;
    data_sent = 0;
    retx_sent = 0;
    nacks_rx = 0;
    cnps_rx = 0;
    timeouts = 0;
    bytes_completed = 0;
    tm_data_sent = Telemetry.counter_handle "data_packets_sent";
    tm_retx = Telemetry.counter_handle "retx_packets";
  }
  in
  t.cb_pace <-
    Engine.register_callback engine (fun _ _ _ ->
        t.pacing <- false;
        try_send t);
  t.cb_rto <- Engine.register_callback engine (fun _ _ _ -> on_rto t);
  t

let post t ~bytes ~on_complete =
  if bytes <= 0 then invalid_arg "Sender.post: bytes must be positive";
  let packets = (bytes + t.cfg.mtu - 1) / t.cfg.mtu in
  Fifo.push t.msgs
    { start = t.end_seq; packets; bytes; posted = Engine.now t.engine;
      on_complete };
  t.end_seq <- t.end_seq + packets;
  try_send t

let rec complete_msgs t =
  if not (Fifo.is_empty t.msgs) then begin
    let m = Fifo.peek t.msgs in
    if t.una >= m.start + m.packets then begin
      ignore (Fifo.pop t.msgs);
      t.bytes_completed <- t.bytes_completed + m.bytes;
      let now = Engine.now t.engine in
      if Telemetry.enabled () then begin
        let fct_us = Sim_time.to_us (now - m.posted) in
        Telemetry.incr_counter "flows_completed";
        Telemetry.observe "fct_us" fct_us;
        Telemetry.record ~time:now
          (Event.Flow_complete { conn = t.conn; bytes = m.bytes; fct_us })
      end;
      m.on_complete now;
      complete_msgs t
    end
  end

let advance_una t seq =
  if seq > t.una then begin
    t.una <- seq;
    (* A cumulative ACK supersedes any pending GBN rewind: sequences
       below [una] are acknowledged and must never be (re)transmitted,
       so the send cursor may not lag behind it. *)
    if t.next_seq < t.una then t.next_seq <- t.una;
    complete_msgs t;
    if t.una >= t.next_seq && Fifo.is_empty t.retx then cancel_rto t
    else arm_rto t
  end

let on_ack t psn =
  let seq = Psn.unwrap ~near:t.una psn in
  advance_una t seq;
  try_send t

let on_nack t psn =
  t.nacks_rx <- t.nacks_rx + 1;
  let seq = Psn.unwrap ~near:t.una psn in
  (* The NACK's ePSN is cumulative: everything below it was received. *)
  advance_una t seq;
  (match t.cfg.mode with
  | Sr_retx ->
      (* Retransmit exactly the packet named by the ePSN. *)
      if
        seq >= t.una && seq < t.next_seq
        && not (Hashtbl.mem t.retx_pending seq)
      then begin
        Hashtbl.add t.retx_pending seq ();
        Fifo.push t.retx seq
      end
  | Gbn_retx ->
      (* Go back: rewind and resend everything from the ePSN. *)
      if seq < t.next_seq then begin
        t.next_seq <- Stdlib.max seq t.una;
        Fifo.clear t.retx;
        Hashtbl.reset t.retx_pending
      end);
  (* The slow start the paper blames: a NACK is treated as congestion. *)
  Dcqcn.on_nack t.cc;
  if (not (Engine.is_pending t.engine t.rto_handle)) && t.una < t.next_seq
  then arm_rto t;
  try_send t

let on_cnp t =
  t.cnps_rx <- t.cnps_rx + 1;
  Dcqcn.on_cnp t.cc
