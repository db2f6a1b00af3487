(** Per-domain telemetry context: a metric registry plus a ring-buffered
    typed-event sink.

    Off by default.  Recording sites guard with [enabled ()], so the
    disabled cost is one domain-local load + branch and zero
    allocation.  [enable] installs a fresh context for the calling
    domain (experiments run sequentially within a domain; the last
    enabler owns the context).  Sharded runs enable one context per
    domain and {!merge} them deterministically at the end. *)

type t

val enable : ?event_capacity:int -> unit -> t
(** Install and return a fresh context.  [event_capacity] bounds the
    retained event ring (default 65536; oldest events are overwritten,
    see {!events_dropped}).  The context is installed for the calling
    domain only: each simulation shard owns an independent context
    (DESIGN.md §14). *)

val use : t -> unit
(** Install an existing context for the calling domain — e.g. the
    {!merge} of per-shard contexts, so [Experiment.telemetry_summary]
    reads the merged view. *)

val merge : t list -> t
(** Deterministic merge in list (= shard-id) order: metric registries
    merge additively ({!Metrics.merge_into}), event streams concatenate
    and stably sort by time, per-kind counts sum.  The merged event ring
    is sized to hold every retained event, so merging never drops. *)

val disable : unit -> unit
val enabled : unit -> bool
val ctx : unit -> t option

val metrics : unit -> Metrics.t option
val metrics_exn : unit -> Metrics.t

val record : time:Sim_time.t -> Event.t -> unit
(** No-op when disabled.  Bumps the per-kind count and appends to the
    ring. *)

val events : t -> (Sim_time.t * Event.t) list
(** Retained events, oldest first. *)

val events_retained : t -> int
val events_dropped : t -> int

val events_by_kind : t -> (string * int) list
(** Total recorded per kind, including events the ring overwrote. *)

val event_count : t -> int -> int
(** By [Event.kind_index]. *)

(** {2 Per-instance counter handles}

    For hot paths: a component keeps one handle per counter per instance
    and increments through it.  The handle resolves the registry entry
    on first use in each telemetry context, so steady-state increments
    neither hash nor allocate.  Keep handles per instance, never in a
    module global: shards run in separate domains, each with its own
    context. *)

type counter_handle

val counter_handle : ?labels:Metrics.labels -> string -> counter_handle

val incr_handle : counter_handle -> unit
(** [incr_counter] through the handle; no-op when telemetry is
    disabled. *)

val register_handle : counter_handle -> unit
(** Create the counter (at 0) in the current context now, so exports
    list it even if it is never incremented; no-op when disabled. *)

(** {2 By-name registry updates}

    Convenience wrappers that look the metric up on every call — use on
    warm paths; cache a [Metrics] handle on hot ones.  All are no-ops
    when telemetry is disabled. *)

val incr_counter : ?labels:Metrics.labels -> string -> unit
val add_counter : ?labels:Metrics.labels -> string -> int -> unit
val observe : ?labels:Metrics.labels -> string -> float -> unit
val set_gauge : ?labels:Metrics.labels -> string -> float -> unit
