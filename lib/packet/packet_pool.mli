(** Freelist recycling of {!Packet.t} records (DESIGN.md §10).

    The data plane allocates one packet record (plus its [kind] inline
    record) per simulated packet; under a sweep that is the dominant
    minor-heap traffic after events.  This pool keeps two freelists —
    data packets and control packets (ACK/NACK/CNP share a shape) — and
    reuses dead records in place, snabb-style.

    {b Ownership}: a packet has exactly one owner at every instant — the
    component currently holding it (a port queue, an in-flight event, a
    receiver).  Ownership transfers at [Port.enqueue] (caller -> port),
    at tx/propagation events (port -> wire -> deliver target) and at
    delivery (wire -> RNIC/switch).  Whoever owns a packet when it dies
    releases it; the recycle points are the RNIC after dispatching a
    delivered packet, port/switch drop paths, NACKs that Themis-D blocks
    at the switch, and the fuzz fault layer's drop/corrupt faults.  After
    [release] the record must not be touched: any field may be
    overwritten by the next constructor call.  Dropped
    packets that tests hold onto (delivered via raw capture hooks) are
    simply never released — unreleased packets are ordinary garbage.

    [release] is idempotent per incarnation ([Packet.t.pooled] guards
    double release), and uids are always freshly assigned on reuse, so a
    recycled packet is observationally identical to a fresh one and
    pooling cannot perturb traces, telemetry or byte-identity baselines.

    The constructors mirror {!Packet}'s and fall back to fresh
    allocation when the freelist is empty. *)

val data :
  conn:Flow_id.t ->
  ?conn_id:int ->
  sport:int ->
  psn:Psn.t ->
  payload:int ->
  last_of_msg:bool ->
  ?retransmission:bool ->
  birth:Sim_time.t ->
  unit ->
  Packet.t

val ack :
  conn:Flow_id.t -> conn_id:int -> sport:int -> psn:Psn.t ->
  birth:Sim_time.t -> Packet.t
(** Control constructors take the interned [conn_id] explicitly: they
    are only called from hot paths that have it cached, and making it
    required keeps the per-packet hash out by construction. *)

val nack :
  conn:Flow_id.t -> conn_id:int -> sport:int -> epsn:Psn.t ->
  birth:Sim_time.t -> Packet.t

val cnp :
  conn:Flow_id.t -> conn_id:int -> sport:int -> birth:Sim_time.t -> Packet.t

val release : Packet.t -> unit
(** Return a dead packet to its freelist.  Releasing twice without an
    intervening reacquire is a no-op. *)

val clone : Packet.t -> Packet.t
(** Deep copy {e preserving the uid} — used by the fuzz duplication
    fault so both deliveries of a "duplicated" packet are independently
    owned (and independently releasable). *)

val reset : unit -> unit
(** Drop both freelists and zero the stats; called wherever
    [Packet.reset_uid_counter] is (per campaign job / fuzz run) so every
    run starts from identical global state. *)

val stats : unit -> int * int
(** [(reused, fresh)] constructor counts since the last [reset]. *)
