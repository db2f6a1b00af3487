(* The reference kernel that run.py times between simulation runs to
   measure how fast the host is running at that moment.  It calls
   nothing in the simulator, so no change to the simulator can change
   its time; it does the kind of work the simulator does (a timestamp-
   ordered event heap, short-lived allocation, random reads and writes of
   a table of a few MB), so the host's neighbours slow it down the way
   they slow the simulator.  Changing it rescales every scaled metric:
   it belongs to the benchmark, like the workloads. *)

type ev = { time : int; slot : int }

let n_slots = 1 lsl 18
let n_pending = 30_000
let n_events = 250_000

let kernel () =
  let table = Array.init n_slots (fun i -> i * 7919 land 1023) in
  let heap = Array.make (n_pending + 1) { time = 0; slot = 0 } in
  let size = ref 0 in
  let push e =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2).time > e.time do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else
        let c =
          if l + 1 < !size && heap.(l + 1).time < heap.(l).time then l + 1 else l
        in
        if heap.(c).time < last.time then (
          heap.(!i) <- heap.(c);
          i := c)
        else sifting := false
    done;
    heap.(!i) <- last;
    top
  in
  (* xorshift64, fixed seed: the same work on every call. *)
  let x = ref 88172645463325252 in
  let rnd () =
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    !x land max_int
  in
  for _ = 1 to n_pending do
    push { time = rnd () land 0xffff; slot = rnd () land (n_slots - 1) }
  done;
  let acc = ref 0 in
  for _ = 1 to n_events do
    let e = pop () in
    let v = table.(e.slot) in
    table.(e.slot) <- v + 1;
    acc := !acc + v;
    push
      { time = e.time + 1 + (rnd () land 1023);
        slot = (e.slot + v + rnd ()) land (n_slots - 1) }
  done;
  !acc

(* Host seconds of one kernel call, and its checksum (which keeps the
   work from being optimised away and shows it did not change). *)
let measure () =
  let t0 = Tracer.now_ns () in
  let sum = kernel () in
  let t1 = Tracer.now_ns () in
  (float_of_int (t1 - t0) /. 1e9, sum)
