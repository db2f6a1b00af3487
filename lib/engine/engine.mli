(** The discrete-event simulation driver.

    An engine owns the simulated clock and a queue of pending events.
    Execution is strictly ordered by (time, scheduling order), so a run
    is a deterministic function of the initial schedule and the
    callbacks' behaviour.

    Events are closure-free: components register a callback once (at
    construction time) and every subsequent event carries only the
    callback id plus an immediate payload — two int arguments and one
    reusable [Obj.t] slot — so scheduling on the hot path allocates
    nothing (see DESIGN.md §10).  The original closure API
    ([schedule]/[schedule_at]) remains for cold paths and tests; it is
    implemented on top of the callback form and costs one closure
    allocation per event, exactly as before. *)

type t

type handle = int
(** A scheduled event.  Handles are generation-tagged ints from the
    engine's event-slot freelist: [none] (and any handle whose event already
    fired or was dropped) never matches a live event, so storing [none]
    replaces the [handle option] idiom without allocating. *)

type callback = int
(** Index into the engine's callback registry. *)

val none : handle
val null_callback : callback

val create : ?capacity:int -> unit -> t
(** [capacity] preallocates the event slots and the overflow heap
    (default 256 events); both grow by doubling beyond that. *)

val now : t -> Sim_time.t
(** Current simulated time. *)

val register_callback : t -> (int -> int -> Obj.t -> unit) -> callback
(** Register a dispatch function once; the returned id is what events
    carry.  Registration allocates — do it at component construction,
    never on the event path.  The function receives the event's [a], [b]
    and [obj] payload. *)

val schedule_call :
  t -> delay:Sim_time.t -> callback -> a:int -> b:int -> obj:Obj.t -> handle
(** Closure-free scheduling: runs the registered callback at
    [now t + delay] with the given payload.  [delay] must be
    non-negative.  Allocates nothing in steady state. *)

val schedule_call_at :
  t -> time:Sim_time.t -> callback -> a:int -> b:int -> obj:Obj.t -> handle
(** As [schedule_call] at absolute [time >= now t]. *)

val schedule : t -> delay:Sim_time.t -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t + delay].  [delay] must be
    non-negative. *)

val schedule_at : t -> time:Sim_time.t -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at absolute [time >= now t]. *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event (or [none])
    is a no-op. *)

val is_pending : t -> handle -> bool

val run : ?until:Sim_time.t -> ?max_events:int -> t -> unit
(** Process events in order until the queue drains, [until] is passed, or
    [max_events] have fired.  The clock never moves backwards; when an
    [until] horizon stops the run, the clock is left at the horizon. *)

val stop : t -> unit
(** Ask a running [run] to return after the current event. *)

val events_processed : t -> int

val pending : t -> int
(** Number of scheduled-and-not-yet-fired events (including cancelled ones
    still in the queue). *)

val sched_stats : t -> int * int
(** [(wheel_adds, heap_adds)]: lifetime counts of scheduled events filed
    in the timing wheel vs. the overflow heap (DESIGN.md §15).  Events
    that later migrate from the heap into the wheel count once, as heap
    adds.  bench-engine asserts the wheel hit ratio stays above 90% on
    incast. *)

(** {2 Test-only access}

    Direct access to the event store under the engine, for unit tests of
    its ordering and slot recycling.  Simulation code must not use it:
    [add] skips the past-time guard and [pop] does not move the clock. *)
module For_tests : sig
  val add : t -> time:Sim_time.t -> int -> handle
  (** File an event at any [time] — behind the clock or the wheel cursor
      included — carrying the value in its [a] payload.  If the engine
      runs it, it does nothing. *)

  val pop : t -> (Sim_time.t * int) option
  (** Remove the next live event and return its time and value;
      cancelled events on the way are removed and skipped. *)

  val peek_time : t -> Sim_time.t option
  (** Time of the next queued event, cancelled or not. *)

  val clear : t -> unit
  (** Remove every queued event, recycling all slots. *)

  val cursor : t -> int
  (** The wheel cursor: adds below it go to the overflow heap. *)

  val heap_capacity : t -> int
  (** Current overflow-heap capacity in events. *)
end

