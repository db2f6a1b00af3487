(* The engine's event core (DESIGN.md §15): the slot arena and overflow
   heap ("heap"), the two-level timing wheel and a qcheck model of the
   whole store against a sorted-list oracle ("wheel"), and runs cut into
   [run ~until] windows with arrivals filed between them ("runs").  Raw
   store operations go through [Engine.For_tests]; ordering across
   cascades and windows also through the public scheduling API. *)

module Core = Engine.For_tests

let epoch = 1 lsl 24
let window = 4096
let add = Core.add
let pop = Core.pop

let drain q =
  let rec go acc = match pop q with None -> List.rev acc | Some e -> go (e :: acc) in
  go []

(* Lifetime (wheel, heap) filing counts since [f] started. *)
let filed q f =
  let w0, h0 = Engine.sched_stats q in
  f ();
  let w1, h1 = Engine.sched_stats q in
  (w1 - w0, h1 - h0)

let check_filed msg q want f =
  Alcotest.(check (pair int int)) msg want (filed q f)

(* ---------------- slot arena + overflow heap ---------------- *)

let test_empty () =
  let q = Engine.create () in
  Alcotest.(check int) "pending" 0 (Engine.pending q);
  Alcotest.(check bool) "peek none" true (Core.peek_time q = None);
  Alcotest.(check bool) "pop none" true (pop q = None)

let test_ordering () =
  let q = Engine.create () in
  List.iter (fun t -> ignore (add q ~time:t t)) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ]
    (List.map fst (drain q))

let test_stability () =
  (* Same-time events pop in insertion order. *)
  let q = Engine.create () in
  List.iter (fun v -> ignore (add q ~time:10 v)) [ 1; 2; 3; 4; 5 ];
  ignore (add q ~time:5 0);
  Alcotest.(check (list int)) "fifo within time" [ 0; 1; 2; 3; 4; 5 ]
    (List.map snd (drain q))

let test_interleaved () =
  let q = Engine.create () in
  ignore (add q ~time:3 1);
  Alcotest.(check bool) "peek 3" true (Core.peek_time q = Some 3);
  ignore (add q ~time:1 2);
  Alcotest.(check bool) "peek 1" true (Core.peek_time q = Some 1);
  Alcotest.(check bool) "pop b" true (pop q = Some (1, 2));
  ignore (add q ~time:2 3);
  Alcotest.(check bool) "pop c" true (pop q = Some (2, 3));
  Alcotest.(check bool) "pop a" true (pop q = Some (3, 1))

let test_capacity_honored () =
  (* The preallocation hint sizes the overflow heap: no growth below it,
     doubling beyond it.  Times beyond the wheel's epoch overflow to the
     heap, so far-future adds exercise its growth. *)
  let q = Engine.create ~capacity:128 () in
  Alcotest.(check int) "preallocated" 128 (Core.heap_capacity q);
  for i = 1 to 128 do
    ignore (add q ~time:(100_000_000 + i) i)
  done;
  Alcotest.(check int) "no growth at hint" 128 (Core.heap_capacity q);
  ignore (add q ~time:99_999_999 0);
  Alcotest.(check int) "doubled past hint" 256 (Core.heap_capacity q);
  Alcotest.(check bool) "still ordered" true (pop q = Some (99_999_999, 0))

let test_growth () =
  let q = Engine.create ~capacity:4 () in
  for i = 1000 downto 1 do
    ignore (add q ~time:i i)
  done;
  Alcotest.(check int) "pending" 1000 (Engine.pending q);
  List.iteri
    (fun i (t, v) ->
      Alcotest.(check int) "time" (i + 1) t;
      Alcotest.(check int) "value" (i + 1) v)
    (drain q)

let test_cancel_while_queued () =
  let q = Engine.create () in
  let h1 = add q ~time:1 1 in
  let h2 = add q ~time:2 2 in
  let h3 = add q ~time:3 3 in
  Alcotest.(check bool) "h2 pending" true (Engine.is_pending q h2);
  Engine.cancel q h2;
  Alcotest.(check bool) "h2 cancelled" false (Engine.is_pending q h2);
  Alcotest.(check bool) "h1 unaffected" true (Engine.is_pending q h1);
  Alcotest.(check bool) "h3 unaffected" true (Engine.is_pending q h3);
  (* Cancelled events stay queued (lazy deletion)... *)
  Alcotest.(check int) "still queued" 3 (Engine.pending q);
  (* ...but never surface. *)
  Alcotest.(check (list (pair int int))) "skipped" [ (1, 1); (3, 3) ] (drain q)

let test_stale_handle_no_resurrection () =
  (* A handle from a dropped event must never affect the slot's next
     occupant. *)
  let q = Engine.create ~capacity:1 () in
  let h1 = add q ~time:1 1 in
  Engine.cancel q h1;
  Alcotest.(check (list (pair int int))) "e1 gone" [] (drain q);
  (* The slot is recycled for e2; h1 is stale. *)
  let h2 = add q ~time:2 2 in
  Engine.cancel q h1;
  Alcotest.(check bool) "stale cancel is a no-op" true (Engine.is_pending q h2);
  Alcotest.(check bool) "stale not pending" false (Engine.is_pending q h1);
  Engine.cancel q Engine.none;
  Alcotest.(check bool) "none not pending" false
    (Engine.is_pending q Engine.none);
  Alcotest.(check (list (pair int int))) "e2 delivered" [ (2, 2) ] (drain q);
  Alcotest.(check bool) "fired handle dead" false (Engine.is_pending q h2)

let test_clear () =
  let q = Engine.create () in
  let h = add q ~time:1 1 in
  ignore (add q ~time:2 2);
  ignore (add q ~time:(3 * epoch) 3);
  Core.clear q;
  Alcotest.(check int) "cleared" 0 (Engine.pending q);
  Alcotest.(check bool) "handles dead" false (Engine.is_pending q h);
  (* Slots were recycled; the store is fully reusable. *)
  ignore (add q ~time:(3 * epoch) 4);
  Alcotest.(check (list (pair int int))) "reusable" [ (3 * epoch, 4) ]
    (drain q)

(* ---------------- wheel ---------------- *)

let test_fifo_ties () =
  (* An L0 slot pins the exact timestamp and appends at the tail. *)
  let q = Engine.create ~capacity:16 () in
  check_filed "all in the wheel" q (5, 0) (fun () ->
      for v = 0 to 4 do
        ignore (add q ~time:7 v)
      done);
  Alcotest.(check int) "pending" 5 (Engine.pending q);
  Alcotest.(check (list (pair int int))) "fifo"
    (List.init 5 (fun v -> (7, v)))
    (drain q);
  Alcotest.(check bool) "empty" true (Core.peek_time q = None)

let test_past_rejected () =
  let q = Engine.create ~capacity:4 () in
  ignore (add q ~time:1000 0);
  Alcotest.(check bool) "advance" true (pop q = Some (1000, 0));
  Alcotest.(check int) "cursor" 1000 (Core.cursor q);
  (* Behind the cursor the wheel refuses: the heap takes the event and
     serves it ahead of anything the wheel holds. *)
  check_filed "past to heap" q (0, 1) (fun () -> ignore (add q ~time:999 1));
  check_filed "cursor time to wheel" q (1, 0) (fun () ->
      ignore (add q ~time:1000 2));
  Alcotest.(check (list (pair int int))) "heap first" [ (999, 1); (1000, 2) ]
    (drain q)

let test_epoch_rejected_and_jump () =
  let q = Engine.create ~capacity:4 () in
  (* Beyond the cursor's 2^24-tick epoch the wheel refuses. *)
  check_filed "beyond epoch" q (0, 2) (fun () ->
      ignore (add q ~time:epoch 0);
      ignore (add q ~time:(epoch + 50) 5));
  check_filed "last in-epoch tick" q (1, 0) (fun () ->
      ignore (add q ~time:(epoch - 1) 1));
  Alcotest.(check bool) "served" true (pop q = Some (epoch - 1, 1));
  (* The wheel is empty: the next pop migrates the heap's whole epoch
     down, moving the cursor into it; a later add at a migrated time
     fires after the migrated event. *)
  Alcotest.(check bool) "migrated" true (pop q = Some (epoch, 0));
  check_filed "migrated epoch in wheel" q (1, 0) (fun () ->
      ignore (add q ~time:(epoch + 50) 6));
  Alcotest.(check (list (pair int int))) "migrated first at the tie"
    [ (epoch + 50, 5); (epoch + 50, 6) ]
    (drain q);
  check_filed "far epoch to heap" q (0, 1) (fun () ->
      ignore (add q ~time:((5 * epoch) + 123) 2));
  Alcotest.(check bool) "served after jump" true
    (pop q = Some ((5 * epoch) + 123, 2));
  Alcotest.(check int) "cursor in new epoch" ((5 * epoch) + 123) (Core.cursor q);
  check_filed "old epoch behind" q (0, 1) (fun () ->
      ignore (add q ~time:(epoch + 1) 3));
  check_filed "new epoch in wheel" q (1, 0) (fun () ->
      ignore (add q ~time:((5 * epoch) + 200) 4));
  Alcotest.(check (list (pair int int))) "behind-cursor first"
    [ (epoch + 1, 3); ((5 * epoch) + 200, 4) ]
    (drain q)

let test_cascade_order () =
  (* Times across both levels, inserted shuffled, come back sorted with
     FIFO ties: L1 -> L0 cascades keep both. *)
  let times =
    [ 3; 300; 70_000; 3; 299; 65_536; 16_000_000; 700_000; 0; 300; 4095;
      4096; 70_000; epoch - 1 ]
  in
  let q = Engine.create ~capacity:(List.length times) () in
  check_filed "all in the wheel" q (List.length times, 0) (fun () ->
      List.iteri (fun v time -> ignore (add q ~time v)) times);
  let sorted =
    List.stable_sort
      (fun (t1, _) (t2, _) -> compare t1 t2)
      (List.mapi (fun v t -> (t, v)) times)
  in
  Alcotest.(check (list (pair int int))) "time order, fifo ties" sorted
    (drain q)

let test_drain_all () =
  let q = Engine.create ~capacity:8 () in
  let hs =
    List.mapi (fun v t -> add q ~time:t v) [ 1; 500; 100_000; 9_000_000; epoch + 5 ]
  in
  Core.clear q;
  Alcotest.(check int) "pending" 0 (Engine.pending q);
  Alcotest.(check bool) "all handles dead" false
    (List.exists (Engine.is_pending q) hs);
  Alcotest.(check bool) "nothing left" true (pop q = None)

let test_window_edge () =
  (* The last tick of an L0 window and the first of the next: one files
     in L0, the other in L1 and cascades when the cursor crosses. *)
  let q = Engine.create () in
  ignore (add q ~time:5000 0);
  Alcotest.(check bool) "cursor in window 1" true (pop q = Some (5000, 0));
  let last = (2 * window) - 1 in
  check_filed "both in the wheel" q (2, 0) (fun () ->
      ignore (add q ~time:(last + 1) 1);
      ignore (add q ~time:last 2));
  Alcotest.(check (list (pair int int))) "edge order"
    [ (last, 2); (last + 1, 1) ]
    (drain q);
  (* The same pair through the engine, with the clock crossing. *)
  let eng = Engine.create () in
  let log = ref [] in
  let note v () = log := (Engine.now eng, v) :: !log in
  ignore (Engine.schedule_at eng ~time:window (note 1));
  ignore (Engine.schedule_at eng ~time:(window - 1) (note 0));
  Engine.run eng;
  Alcotest.(check (list (pair int int))) "engine edge order"
    [ (window - 1, 0); (window, 1) ]
    (List.rev !log)

let test_cascade_tie () =
  (* A filed in L1 before the cursor reaches its window; C added at the
     same time directly into L0 after the cascade.  C was scheduled
     later, so it fires later. *)
  let eng = Engine.create () in
  let log = ref [] in
  let tie = (2 * window) + 1808 in
  let cb = Engine.register_callback eng (fun a _ _ -> log := (Engine.now eng, a) :: !log) in
  let sched time a =
    ignore (Engine.schedule_call_at eng ~time cb ~a ~b:0 ~obj:(Obj.repr ()))
  in
  sched tie 0;
  ignore
    (Engine.schedule_at eng ~time:((2 * window) + 300) (fun () ->
         (* The cursor is in A's window now: A was cascaded into L0. *)
         sched tie 1;
         sched tie 2));
  sched tie 3;
  Engine.run eng;
  Alcotest.(check (list (pair int int))) "insertion order at the tie"
    [ (tie, 0); (tie, 3); (tie, 1); (tie, 2) ]
    (List.rev !log)

(* ---------------- qcheck model: wheel + overflow heap ----------------- *)

(* Reference oracle: a sorted association list keyed on (time, insertion
   id), with cancellation by id.  The store must pop exactly the
   oracle's live events in the oracle's order through any interleaving
   of adds, cancels and pops, from capacity 2 so slot recycling and
   growth are exercised too.  Adds may land behind the cursor. *)

type op = Add of int | Cancel of int | Pop

let ops_arb op_gen max_len =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Add t -> Printf.sprintf "add %d" t
             | Cancel i -> Printf.sprintf "cancel #%d" i
             | Pop -> "pop")
           ops))
    QCheck.Gen.(list_size (int_range 0 max_len) op_gen)

let model_holds ops =
  let q = Engine.create ~capacity:2 () in
  (* Per-event (id, time, cancelled) in reverse insertion order, minus
     popped events; insertion order doubles as the seq tie-break. *)
  let model = ref [] in
  let handles = Hashtbl.create 16 in
  let next_id = ref 0 in
  let ok = ref true in
  let model_pop () =
    let live = List.filter (fun (_, _, c) -> not !c) (List.rev !model) in
    match List.stable_sort (fun (_, t1, _) (_, t2, _) -> compare t1 t2) live with
    | [] -> None
    | (id, t, _) :: _ ->
        model := List.filter (fun (i, _, _) -> i <> id) !model;
        Some (t, id)
  in
  List.iter
    (function
      | Add t ->
          let id = !next_id in
          incr next_id;
          Hashtbl.replace handles id (add q ~time:t id);
          model := (id, t, ref false) :: !model
      | Cancel id -> (
          (* Cancel a (possibly stale or unknown) handle. *)
          match Hashtbl.find_opt handles id with
          | None -> ()
          | Some h ->
              Engine.cancel q h;
              List.iter (fun (i, _, c) -> if i = id then c := true) !model)
      | Pop -> if pop q <> model_pop () then ok := false)
    ops;
  (* Drain both to the end: the total order must agree... *)
  let rec drain_both () =
    let got = pop q in
    if got <> model_pop () then ok := false
    else if got <> None then drain_both ()
  in
  drain_both ();
  (* ...and every handle must be dead afterwards. *)
  Hashtbl.iter (fun _ h -> if Engine.is_pending q h then ok := false) handles;
  !ok

let prop_queue_model =
  (* Small times stress L0 and FIFO ties; the large band spans many L1
     slots and overflows past them. *)
  QCheck.Test.make ~name:"model: queue equals sorted-list oracle" ~count:300
    (ops_arb
       QCheck.Gen.(
         frequency
           [
             (5, map (fun t -> Add t) (int_range 0 30));
             (2, map (fun t -> Add t) (int_range 0 300_000));
             (2, map (fun i -> Cancel i) (int_range 0 40));
             (3, return Pop);
           ])
       120)
    model_holds

let prop_wheel_model =
  (* Far band: 5 epochs out, so pops force epoch migrations, with
     cancels hitting wheel-slotted and heap events alike. *)
  QCheck.Test.make
    ~name:"model: wheel+heap equals sorted-list oracle across epochs"
    ~count:300
    (ops_arb
       QCheck.Gen.(
         frequency
           [
             (4, map (fun t -> Add t) (int_range 0 30));
             (2, map (fun t -> Add t) (int_range 0 3_000_000));
             (2, map (fun t -> Add t) (int_range 0 (5 * epoch)));
             (2, map (fun i -> Cancel i) (int_range 0 50));
             (4, return Pop);
           ])
       150)
    model_holds

(* ---------------- serial == windowed ------------------------------------ *)

(* One engine advanced (a) in a single [run ~until:horizon] and (b) in
   fixed windows with external arrivals filed at each barrier between
   two [run ~until] calls.  Timer events land
   on even ticks and externals on odd ticks, so the merged (time) order
   is unique and the fire logs must be identical — even though the
   windowed run schedules externals mid-flight (behind-cursor heap adds
   and epoch migrations interleave with barrier-time adds) while the
   serial run schedules them all upfront. *)

let horizon_t = 60_000_000 (* ~3.5 epochs *)
let lookahead = 500_000

let external_times =
  (* Odd start, even step: every arrival tick is odd and unique, and the
     first lies beyond the first window (externals are scheduled at the
     barrier one lookahead ahead). *)
  Array.init 400 (fun j -> 1_000_001 + (j * 111_112))

let build_timers eng log =
  for k = 0 to 7 do
    let fires = ref 0 in
    let rec tick () =
      log := (Engine.now eng, k) :: !log;
      incr fires;
      let d =
        if !fires land 7 = 0 then
          (* Far-future reschedule: overflows to the heap, migrates back
             into the wheel when its epoch arrives. *)
          epoch + (2 * ((k * 9973) + 1))
        else 2 * (1 + (((k * 31) + !fires) land 8191))
      in
      ignore (Engine.schedule eng ~delay:(Sim_time.ns d) tick)
    in
    ignore (Engine.schedule eng ~delay:(Sim_time.ns (2 * k)) tick)
  done

let run_serial () =
  let eng = Engine.create () in
  let log = ref [] in
  build_timers eng log;
  Array.iteri
    (fun j t ->
      ignore
        (Engine.schedule_at eng ~time:t (fun () ->
             log := (Engine.now eng, 1000 + j) :: !log)))
    external_times;
  Engine.run eng ~until:horizon_t;
  List.rev !log

(* Runs [eng] to [until_] in lookahead windows, calling [drain ~upto] at
   every barrier. *)
let advance eng ~lookahead ~drain ~until_ =
  let t = ref 0 in
  while !t < until_ do
    let horizon = Sim_time.min until_ (!t + lookahead) in
    Engine.run eng ~until:horizon;
    drain ~upto:horizon;
    t := horizon
  done

let run_windowed () =
  let eng = Engine.create () in
  let log = ref [] in
  build_timers eng log;
  let idx = ref 0 in
  let drain ~upto =
    (* Everything due within the next window must be filed now; arrival
       ticks are strictly beyond [upto]. *)
    while
      !idx < Array.length external_times
      && external_times.(!idx) <= upto + lookahead
    do
      let j = !idx in
      incr idx;
      ignore
        (Engine.schedule_at eng ~time:external_times.(j) (fun () ->
             log := (Engine.now eng, 1000 + j) :: !log))
    done
  in
  advance eng ~lookahead ~drain ~until_:horizon_t;
  List.rev !log

let test_serial_eq_windowed () =
  let serial = run_serial () in
  let windowed = run_windowed () in
  Alcotest.(check int) "same event count" (List.length serial)
    (List.length windowed);
  Alcotest.(check bool) "identical fire logs" true (serial = windowed);
  (* Sanity: the run is long enough to cross epochs and fire externals. *)
  Alcotest.(check bool) "externals fired" true
    (List.exists (fun (_, id) -> id >= 1000) serial);
  Alcotest.(check bool) "spans epochs" true
    (List.exists (fun (t, _) -> t > 2 * epoch) serial)

let test_behind_cursor_window () =
  (* The first window stops at 100_000 after peeking X at 1_000_000, so
     the wheel cursor sits at X while the clock sits at the horizon.  Y,
     drained at that barrier for 150_000, lies behind the cursor: the
     heap takes it and serves it first.  Z, drained for X's own tick,
     files in the wheel behind X. *)
  let eng = Engine.create () in
  let log = ref [] in
  let note v () = log := (Engine.now eng, v) :: !log in
  ignore (Engine.schedule_at eng ~time:1_000_000 (note 0));
  let filed_at_barrier = ref None in
  let drain ~upto =
    if upto = 100_000 then
      filed_at_barrier :=
        Some
          (filed eng (fun () ->
               ignore (Engine.schedule_at eng ~time:150_000 (note 1))),
           filed eng (fun () ->
               ignore (Engine.schedule_at eng ~time:1_000_000 (note 2))))
  in
  advance eng ~lookahead:100_000 ~drain ~until_:2_000_000;
  Alcotest.(check bool) "Y to heap, Z to wheel" true
    (!filed_at_barrier = Some ((0, 1), (1, 0)));
  Alcotest.(check (list (pair int int))) "fire order"
    [ (150_000, 1); (1_000_000, 0); (1_000_000, 2) ]
    (List.rev !log);
  Alcotest.(check int) "clock at the end" 2_000_000 (Engine.now eng)

let () =
  Alcotest.run "event_core"
    [
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "stability" `Quick test_stability;
          Alcotest.test_case "interleaved" `Quick test_interleaved;
          Alcotest.test_case "capacity honored" `Quick test_capacity_honored;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "cancel while queued" `Quick
            test_cancel_while_queued;
          Alcotest.test_case "stale handles" `Quick
            test_stale_handle_no_resurrection;
          Alcotest.test_case "clear" `Quick test_clear;
          QCheck_alcotest.to_alcotest prop_queue_model;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
          Alcotest.test_case "past rejected" `Quick test_past_rejected;
          Alcotest.test_case "epoch rejected + jump" `Quick
            test_epoch_rejected_and_jump;
          Alcotest.test_case "cascade order" `Quick test_cascade_order;
          Alcotest.test_case "drain_all" `Quick test_drain_all;
          Alcotest.test_case "L0 window edge" `Quick test_window_edge;
          Alcotest.test_case "L1/L0 tie after cascade" `Quick test_cascade_tie;
          QCheck_alcotest.to_alcotest prop_wheel_model;
        ] );
      ( "runs",
        [
          Alcotest.test_case "serial == windowed" `Quick
            test_serial_eq_windowed;
          Alcotest.test_case "behind-cursor add in a window" `Quick
            test_behind_cursor_window;
        ] );
    ]
