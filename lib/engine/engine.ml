(* The event core: a slot arena of event payloads, a two-level timing
   wheel for the near future and a 4-ary overflow heap, all in this one
   compilation unit so the per-event path (add, take, dispatch) is
   direct calls on one record (DESIGN.md §15).

   Ordering is the total (time, seq) order of a single stable heap:
   wheel-resident events never store their seq (slot append order is
   insertion order); heap events carry it. *)

type handle = int
type callback = int

let none : handle = -1
let null_callback = -1

(* A handle packs (generation lsl slot_bits) lor slot.  24 bits of slot
   index bound the arena below 2^24 *simultaneous* events and leave 38
   generation bits, enough that a slot reused once per simulated
   nanosecond would take years of sim time to wrap.  The same 24 bits
   are the wheel's link width: [nil] is the all-ones slot id, which the
   arena never hands out. *)
let slot_bits = 24
let nil = (1 lsl slot_bits) - 1

(* Wheel geometry: L0 is 4096 one-tick slots covering the cursor's
   aligned 4096-tick window; L1 is 4096 slots of 4096 ticks covering the
   cursor's 2^24-tick (~16.7 ms) epoch.  Both levels share one slot-word
   array (L1 at offset [level_slots]) and one three-tier occupancy
   bitmap: 128 words of 32 bits per level, 4 summary words per level
   (one bit per word) and one top word per level (one bit per summary
   word), so finding the next occupied slot is at most three
   find-first-set steps. *)
let level_bits = 12
let level_slots = 1 lsl level_bits
let level_mask = level_slots - 1
let epoch_shift = 2 * level_bits
let rel_max = (1 lsl epoch_shift) - 1
let words_per_level = level_slots / 32
let sums_per_level = words_per_level / 32

type t = {
  mutable now : Sim_time.t;
  mutable stop_requested : bool;
  mutable events_processed : int;
  mutable callbacks : (int -> int -> Obj.t -> unit) array;
  mutable n_callbacks : int;
  (* Slot arena: one event's payload per slot.  [cbs.(s) < 0] marks a
     cancelled event (lazy deletion: it stays queued until taken).
     [links.(s)] is the wheel node while [s] is wheel-resident — the
     time relative to the epoch base (24 bits, shifted left 24) packed
     with the next-in-slot link ([nil] when last) — and the freelist
     link while [s] is free. *)
  mutable cbs : int array;
  mutable args_a : int array;
  mutable args_b : int array;
  mutable objs : Obj.t array;
  mutable gens : int array;
  mutable links : int array;
  mutable free_head : int;
  (* Wheel.  A slot word is [head lor (tail lsl 24)], -1 when empty. *)
  ht : int array;
  bits : int array;
  sums : int array;
  tops : int array;
  mutable cursor : int;  (* every wheel-resident time is >= cursor *)
  mutable epoch_base : int;  (* cursor's epoch start *)
  mutable wheel_count : int;
  (* Overflow min-heap over (time, seq), structure-of-arrays: times
     beyond the cursor's epoch, and times behind the cursor (adds made
     after [run ~until] stopped short of the next wheel event), which
     are served straight from the heap. *)
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable heap_size : int;
  mutable next_seq : int;
  (* Cached head decision, valid while [has_next]; adds below
     [next_time] invalidate it. *)
  mutable has_next : bool;
  mutable next_is_wheel : bool;
  mutable next_time : int;
  mutable next_slot : int;
  mutable wheel_adds : int;
  mutable heap_adds : int;
}

let obj_unit = Obj.repr ()

let register_callback t f =
  let cap = Array.length t.callbacks in
  if t.n_callbacks >= cap then begin
    let next = Array.make (2 * cap) f in
    Array.blit t.callbacks 0 next 0 t.n_callbacks;
    t.callbacks <- next
  end;
  t.callbacks.(t.n_callbacks) <- f;
  t.n_callbacks <- t.n_callbacks + 1;
  t.n_callbacks - 1

(* Callback 0, installed by [create]: runs a [unit -> unit] closure
   carried in the event's obj slot — the legacy API rides on the
   closure-free core. *)
let closure_cb = 0

let run_closure _ _ obj = (Obj.obj obj : unit -> unit) ()

let create ?(capacity = 256) () =
  let cap = if capacity < 1 then 1 else capacity in
  let t =
    {
      now = Sim_time.zero;
      stop_requested = false;
      events_processed = 0;
      callbacks = Array.make 8 run_closure;
      n_callbacks = 0;
      cbs = Array.make cap 0;
      args_a = Array.make cap 0;
      args_b = Array.make cap 0;
      objs = Array.make cap obj_unit;
      gens = Array.make cap 0;
      links = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1);
      free_head = 0;
      ht = Array.make (2 * level_slots) (-1);
      bits = Array.make (2 * words_per_level) 0;
      sums = Array.make (2 * sums_per_level) 0;
      tops = Array.make 2 0;
      cursor = 0;
      epoch_base = 0;
      wheel_count = 0;
      times = Array.make cap 0;
      seqs = Array.make cap 0;
      slots = Array.make cap 0;
      heap_size = 0;
      next_seq = 0;
      has_next = false;
      next_is_wheel = false;
      next_time = 0;
      next_slot = 0;
      wheel_adds = 0;
      heap_adds = 0;
    }
  in
  let id = register_callback t run_closure in
  assert (id = closure_cb);
  t

let extend src ncap pad =
  let dst = Array.make ncap pad in
  Array.blit src 0 dst 0 (Array.length src);
  dst

let grow_arena t =
  let cap = Array.length t.cbs in
  let ncap = Stdlib.min nil (Stdlib.max 64 (2 * cap)) in
  if ncap <= cap then failwith "Engine: event arena overflow";
  t.cbs <- extend t.cbs ncap 0;
  t.args_a <- extend t.args_a ncap 0;
  t.args_b <- extend t.args_b ncap 0;
  t.objs <- extend t.objs ncap obj_unit;
  t.gens <- extend t.gens ncap 0;
  t.links <- extend t.links ncap 0;
  for i = cap to ncap - 1 do
    t.links.(i) <- (if i = ncap - 1 then -1 else i + 1)
  done;
  t.free_head <- cap

let[@inline] free_slot t s =
  Array.unsafe_set t.gens s (Array.unsafe_get t.gens s + 1);
  (* Freed slots hold [obj_unit], so unit-payload adds skip the store
     and its write barrier; skip it here too when it already holds. *)
  if Array.unsafe_get t.objs s != obj_unit then
    Array.unsafe_set t.objs s obj_unit;
  Array.unsafe_set t.links s t.free_head;
  t.free_head <- s

(* ---------------- wheel ---------------- *)

(* First set bit of a non-zero 32-bit word via the de Bruijn multiply:
   branch-free and free of the idiv a [mod]-by-prime table would cost.
   The isolated bit is at most 2^31, so the 63-bit product is exact and
   [land 0xFFFFFFFF] reproduces the 32-bit truncation. *)
let debruijn32 = 0x077CB531

let ffs_tbl =
  let tbl = Array.make 32 (-1) in
  for i = 0 to 31 do
    tbl.((((1 lsl i) * debruijn32) land 0xFFFFFFFF) lsr 27) <- i
  done;
  tbl

let[@inline] ffs w =
  Array.unsafe_get ffs_tbl ((((w land -w) * debruijn32) land 0xFFFFFFFF) lsr 27)

(* Occupancy of slot word [i] (0 .. 2 * level_slots - 1): word [i lsr 5],
   summary [i lsr 10], top word [i lsr 12]. *)
let[@inline] mark t i =
  let w = i lsr 5 in
  let word = Array.unsafe_get t.bits w in
  Array.unsafe_set t.bits w (word lor (1 lsl (i land 31)));
  if word = 0 then begin
    let sw = w lsr 5 in
    let sum = Array.unsafe_get t.sums sw in
    Array.unsafe_set t.sums sw (sum lor (1 lsl (w land 31)));
    if sum = 0 then begin
      let lv = sw / sums_per_level in
      t.tops.(lv) <- t.tops.(lv) lor (1 lsl (sw land (sums_per_level - 1)))
    end
  end

let[@inline] unmark t i =
  let w = i lsr 5 in
  let word = Array.unsafe_get t.bits w land lnot (1 lsl (i land 31)) in
  Array.unsafe_set t.bits w word;
  if word = 0 then begin
    let sw = w lsr 5 in
    let sum = Array.unsafe_get t.sums sw land lnot (1 lsl (w land 31)) in
    Array.unsafe_set t.sums sw sum;
    if sum = 0 then begin
      let lv = sw / sums_per_level in
      t.tops.(lv) <-
        t.tops.(lv) land lnot (1 lsl (sw land (sums_per_level - 1)))
    end
  end

(* Lowest occupied slot index >= [from] within level [lv], or -1. *)
let scan t lv from =
  if from > level_mask then -1
  else begin
    let wbase = lv * words_per_level and sbase = lv * sums_per_level in
    let w = from lsr 5 in
    let m =
      Array.unsafe_get t.bits (wbase + w)
      land (-1 lsl (from land 31)) land 0xFFFFFFFF
    in
    if m <> 0 then (w lsl 5) lor ffs m
    else begin
      let w1 = w + 1 in
      let sw =
        if w1 >= words_per_level then -1
        else begin
          let sm =
            Array.unsafe_get t.sums (sbase + (w1 lsr 5))
            land (-1 lsl (w1 land 31)) land 0xFFFFFFFF
          in
          if sm <> 0 then ((w1 lsr 5) lsl 5) lor ffs sm
          else begin
            let tm = t.tops.(lv) land (-2 lsl (w1 lsr 5)) in
            if tm = 0 then -1
            else begin
              let s = ffs tm in
              (s lsl 5) lor ffs (Array.unsafe_get t.sums (sbase + s))
            end
          end
        end
      in
      if sw < 0 then -1
      else (sw lsl 5) lor ffs (Array.unsafe_get t.bits (wbase + sw))
    end
  end

(* Append slot [s] (relative time [rel]) at the tail of slot word [i]. *)
let[@inline] append t i s rel =
  Array.unsafe_set t.links s ((rel lsl slot_bits) lor nil);
  let ht = Array.unsafe_get t.ht i in
  if ht < 0 then begin
    Array.unsafe_set t.ht i (s lor (s lsl slot_bits));
    mark t i
  end
  else begin
    let tail = ht lsr slot_bits in
    Array.unsafe_set t.links tail
      (Array.unsafe_get t.links tail land lnot nil lor s);
    Array.unsafe_set t.ht i (ht land nil lor (s lsl slot_bits))
  end

(* File [s] at [time]; the caller guarantees [cursor <= time] and that
   [time] lies in the cursor's epoch. *)
let[@inline] wheel_file t time s =
  let rel = time - t.epoch_base in
  if time lsr level_bits = t.cursor lsr level_bits then
    append t (time land level_mask) s rel
  else append t (level_slots lor (rel lsr level_bits)) s rel;
  t.wheel_count <- t.wheel_count + 1

(* Redistribute L1 slot [j] into L0.  Walk order is append order, so
   each L0 slot receives its share in insertion order, ahead of any
   later direct add (those can only happen once the cursor is in this
   window, i.e. after the cascade).  Top-level recursion: no refs. *)
let rec relink t s =
  if s <> nil then begin
    let node = Array.unsafe_get t.links s in
    let rel = node lsr slot_bits in
    append t (rel land level_mask) s rel;
    relink t (node land nil)
  end

let cascade t j =
  let i = level_slots lor j in
  let ht = t.ht.(i) in
  t.ht.(i) <- -1;
  unmark t i;
  relink t (ht land nil)

(* Move the cursor to the earliest wheel-resident time and return it;
   requires [wheel_count > 0].  Crossing into a later window cascades
   that window's L1 slot; the cursor never leaves its epoch (only
   [migrate] moves it to a new one). *)
let rec wheel_min t =
  let s = scan t 0 (t.cursor land level_mask) in
  if s >= 0 then begin
    let c = t.cursor land lnot level_mask lor s in
    t.cursor <- c;
    c
  end
  else begin
    let j = scan t 1 (((t.cursor lsr level_bits) land level_mask) + 1) in
    if j < 0 then assert false;
    cascade t j;
    t.cursor <- t.epoch_base lor (j lsl level_bits);
    wheel_min t
  end

(* ---------------- overflow heap ---------------- *)

(* 4-ary: (time, seq) is a strict total order, so every correct min-heap
   pops the same sequence; four children halve the sift depth and share
   a cache line in the SoA layout.  Both sifts percolate a hole with the
   moving element's keys held in registers. *)
let rec sift_up t i ~time ~seq ~slot =
  if i = 0 then begin
    t.times.(0) <- time;
    t.seqs.(0) <- seq;
    t.slots.(0) <- slot
  end
  else begin
    let parent = (i - 1) / 4 in
    let pt = Array.unsafe_get t.times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get t.seqs parent) then begin
      t.times.(i) <- pt;
      t.seqs.(i) <- Array.unsafe_get t.seqs parent;
      t.slots.(i) <- Array.unsafe_get t.slots parent;
      sift_up t parent ~time ~seq ~slot
    end
    else begin
      t.times.(i) <- time;
      t.seqs.(i) <- seq;
      t.slots.(i) <- slot
    end
  end

let rec sift_down t i ~time ~seq ~slot =
  let l = (4 * i) + 1 in
  if l >= t.heap_size then begin
    t.times.(i) <- time;
    t.seqs.(i) <- seq;
    t.slots.(i) <- slot
  end
  else begin
    (* Minimum child; seqs are read only on a time tie. *)
    let c = ref l and ct = ref (Array.unsafe_get t.times l) in
    for k = l + 1 to Stdlib.min (l + 3) (t.heap_size - 1) do
      let kt = Array.unsafe_get t.times k in
      if
        kt < !ct
        || kt = !ct && Array.unsafe_get t.seqs k < Array.unsafe_get t.seqs !c
      then begin
        c := k;
        ct := kt
      end
    done;
    let c = !c and ct = !ct in
    let cs = Array.unsafe_get t.seqs c in
    if ct < time || (ct = time && cs < seq) then begin
      t.times.(i) <- ct;
      t.seqs.(i) <- cs;
      t.slots.(i) <- Array.unsafe_get t.slots c;
      sift_down t c ~time ~seq ~slot
    end
    else begin
      t.times.(i) <- time;
      t.seqs.(i) <- seq;
      t.slots.(i) <- slot
    end
  end

let heap_push t ~time ~seq ~slot =
  if t.heap_size >= Array.length t.times then begin
    let ncap = Stdlib.max 64 (2 * Array.length t.times) in
    t.times <- extend t.times ncap 0;
    t.seqs <- extend t.seqs ncap 0;
    t.slots <- extend t.slots ncap 0
  end;
  let i = t.heap_size in
  t.heap_size <- i + 1;
  sift_up t i ~time ~seq ~slot

let heap_remove_top t =
  let last = t.heap_size - 1 in
  t.heap_size <- last;
  if last > 0 then
    sift_down t 0 ~time:t.times.(last) ~seq:t.seqs.(last) ~slot:t.slots.(last)

(* ---------------- add / take ---------------- *)

let[@inline] add t ~time ~cb ~a ~b ~obj =
  if t.free_head < 0 then grow_arena t;
  let s = t.free_head in
  t.free_head <- Array.unsafe_get t.links s;
  Array.unsafe_set t.cbs s cb;
  Array.unsafe_set t.args_a s a;
  Array.unsafe_set t.args_b s b;
  if obj != obj_unit then Array.unsafe_set t.objs s obj;
  (* Every event draws a seq, wheel-resident or not: the shared counter
     is what orders heap events against the wheel's append order. *)
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if time >= t.cursor && time - t.epoch_base <= rel_max then begin
    wheel_file t time s;
    t.wheel_adds <- t.wheel_adds + 1
  end
  else begin
    heap_push t ~time ~seq ~slot:s;
    t.heap_adds <- t.heap_adds + 1
  end;
  if t.has_next && time < t.next_time then t.has_next <- false;
  (Array.unsafe_get t.gens s lsl slot_bits) lor s

(* An epoch's worth of overflow moves into an empty wheel: heap pops come
   out in (time, seq) order, so the append-only slots receive them in
   exactly the order they must fire. *)
let migrate t ht =
  let epoch = ht lsr epoch_shift in
  let start = epoch lsl epoch_shift in
  if start > t.cursor then begin
    t.cursor <- start;
    t.epoch_base <- start
  end;
  while t.heap_size > 0 && Array.unsafe_get t.times 0 lsr epoch_shift = epoch do
    let tm = t.times.(0) and s = t.slots.(0) in
    heap_remove_top t;
    wheel_file t tm s
  done

(* Resolve the head event; requires a non-empty queue.  A heap event
   never ties a wheel event (DESIGN.md §15: behind-cursor heap events are
   strictly earlier than every wheel event, and an epoch migrates whole
   before the wheel accepts any time in it); the heap is taken only when
   strictly earlier. *)
let rec resolve t =
  if t.wheel_count > 0 then begin
    let wt = wheel_min t in
    if t.heap_size > 0 && Array.unsafe_get t.times 0 < wt then heap_head t
    else begin
      t.next_is_wheel <- true;
      t.next_time <- wt;
      t.next_slot <- Array.unsafe_get t.ht (wt land level_mask) land nil;
      t.has_next <- true
    end
  end
  else begin
    let ht = t.times.(0) in
    if ht >= t.cursor then begin
      migrate t ht;
      resolve t
    end
    else heap_head t
  end

and heap_head t =
  t.next_is_wheel <- false;
  t.next_time <- t.times.(0);
  t.next_slot <- t.slots.(0);
  t.has_next <- true

(* Unlink the resolved head event and return its slot, still holding
   its payload (the caller frees it).  When more events share the
   cursor's L0 slot they carry the time just served and still beat the
   heap, so the cached decision survives with the next head. *)
let[@inline] take t =
  let s = t.next_slot in
  if t.next_is_wheel then begin
    let i = t.next_time land level_mask in
    let nx = Array.unsafe_get t.links s land nil in
    t.wheel_count <- t.wheel_count - 1;
    if nx = nil then begin
      Array.unsafe_set t.ht i (-1);
      unmark t i;
      t.has_next <- false
    end
    else begin
      Array.unsafe_set t.ht i (Array.unsafe_get t.ht i land lnot nil lor nx);
      t.next_slot <- nx
    end
  end
  else begin
    heap_remove_top t;
    t.has_next <- false
  end;
  s

let[@inline] is_empty t = t.wheel_count = 0 && t.heap_size = 0

(* ---------------- engine API ---------------- *)

let now t = t.now

let past_error t time =
  invalid_arg
    (Format.asprintf "Engine.schedule_at: time %a is in the past (now %a)"
       Sim_time.pp time Sim_time.pp t.now)

let schedule_call_at t ~time cb ~a ~b ~obj =
  if time < t.now then past_error t time;
  add t ~time ~cb ~a ~b ~obj

let schedule_call t ~delay cb ~a ~b ~obj =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  add t ~time:(t.now + delay) ~cb ~a ~b ~obj

let schedule_at t ~time action =
  if time < t.now then past_error t time;
  add t ~time ~cb:closure_cb ~a:0 ~b:0 ~obj:(Obj.repr action)

let schedule t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  add t ~time:(t.now + delay) ~cb:closure_cb ~a:0 ~b:0 ~obj:(Obj.repr action)

(* A slot's generation only matches handles minted for its current
   occupant: [free_slot] bumps it, so stale handles (and [none]) never
   touch a recycled slot. *)
let live_slot t h =
  if h < 0 then -1
  else begin
    let s = h land nil in
    if s < Array.length t.gens && t.gens.(s) = h asr slot_bits then s else -1
  end

let cancel t h =
  let s = live_slot t h in
  if s >= 0 then t.cbs.(s) <- -1

let is_pending t h =
  let s = live_slot t h in
  s >= 0 && t.cbs.(s) >= 0

let run ?until ?max_events t =
  t.stop_requested <- false;
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let horizon = match until with Some u -> u | None -> max_int in
  let continue = ref true in
  while !continue do
    if t.stop_requested || !budget <= 0 || is_empty t then continue := false
    else begin
      if not t.has_next then resolve t;
      let time = t.next_time in
      if time > horizon then begin
        t.now <- horizon;
        continue := false
      end
      else begin
        (* Take, then dispatch.  The slot is recycled before the
           callback runs, so the fired handle is already dead inside it;
           the clock advances over cancelled events too, but they cost
           no budget. *)
        t.now <- time;
        let s = take t in
        let cb = Array.unsafe_get t.cbs s in
        if cb < 0 then free_slot t s
        else begin
          let a = Array.unsafe_get t.args_a s
          and b = Array.unsafe_get t.args_b s
          and obj = Array.unsafe_get t.objs s in
          free_slot t s;
          t.events_processed <- t.events_processed + 1;
          decr budget;
          (Array.unsafe_get t.callbacks cb) a b obj
        end
      end
    end
  done;
  if is_empty t then
    match until with
    | Some u when u < max_int && u > t.now -> t.now <- u
    | _ -> ()

let stop t = t.stop_requested <- true
let events_processed t = t.events_processed
let pending t = t.wheel_count + t.heap_size
let sched_stats t = (t.wheel_adds, t.heap_adds)

module For_tests = struct
  let noop () = ()
  let add t ~time v = add t ~time ~cb:closure_cb ~a:v ~b:0 ~obj:(Obj.repr noop)

  let rec pop t =
    if is_empty t then None
    else begin
      if not t.has_next then resolve t;
      let time = t.next_time in
      let s = take t in
      let live = t.cbs.(s) >= 0 and v = t.args_a.(s) in
      free_slot t s;
      if live then Some (time, v) else pop t
    end

  let peek_time t =
    if is_empty t then None
    else begin
      if not t.has_next then resolve t;
      Some t.next_time
    end

  let clear t =
    while not (is_empty t) do
      if not t.has_next then resolve t;
      free_slot t (take t)
    done

  let cursor t = t.cursor
  let heap_capacity t = Array.length t.times
end
