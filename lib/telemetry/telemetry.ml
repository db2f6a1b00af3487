(* Per-domain telemetry context.

   One context is current at a time per domain (a simulation shard is
   single-threaded internally; experiments run sequentially within a
   domain); [enable] installs a fresh context and [disable] removes it.
   Every recording site guards with [enabled ()], so the cost with
   telemetry off is one domain-local load + branch and no allocation.

   Sharded runs give every domain its own context and merge them in
   shard-id order at the end ([merge]), which is deterministic because
   metric export sorts by (name, labels) and counters/histograms are
   additive. *)

type t = {
  metrics : Metrics.t;
  events : (Sim_time.t * Event.t) Ring.t;
  kind_counts : int array;  (* per Event.kind_index, includes overwritten *)
}

type slot = { mutable cur : t option }

let slot_key = Domain.DLS.new_key (fun () -> { cur = None })

let default_event_capacity = 1 lsl 16

let make ?(event_capacity = default_event_capacity) () =
  {
    metrics = Metrics.create ();
    events = Ring.create ~capacity:event_capacity;
    kind_counts = Array.make Event.kinds 0;
  }

let enable ?event_capacity () =
  let ctx = make ?event_capacity () in
  (Domain.DLS.get slot_key).cur <- Some ctx;
  ctx

let use ctx = (Domain.DLS.get slot_key).cur <- Some ctx
let disable () = (Domain.DLS.get slot_key).cur <- None

let enabled () =
  match (Domain.DLS.get slot_key).cur with None -> false | Some _ -> true

let ctx () = (Domain.DLS.get slot_key).cur

let metrics () =
  match (Domain.DLS.get slot_key).cur with
  | Some c -> Some c.metrics
  | None -> None

let metrics_exn () =
  match (Domain.DLS.get slot_key).cur with
  | Some c -> c.metrics
  | None -> failwith "Telemetry: not enabled"

let record ~time ev =
  match (Domain.DLS.get slot_key).cur with
  | None -> ()
  | Some c ->
      let k = Event.kind_index ev in
      c.kind_counts.(k) <- c.kind_counts.(k) + 1;
      Ring.push c.events (time, ev)

let events c = Ring.to_list c.events
let events_retained c = Ring.length c.events
let events_dropped c = Ring.dropped c.events

let events_by_kind c =
  Array.to_list
    (Array.mapi (fun i n -> (Event.kind_name_of_index i, n)) c.kind_counts)

let event_count c ev_kind_index = c.kind_counts.(ev_kind_index)

(* Deterministic merge, in list (= shard-id) order: registries merge
   additively key by key, event streams concatenate then stably sort by
   time (ties keep shard order), per-kind counts sum.  The merged ring
   is sized to hold everything, so merging never overwrites. *)
let merge ctxs =
  let all_events =
    List.concat_map (fun c -> Ring.to_list c.events) ctxs
    |> List.stable_sort (fun (ta, _) (tb, _) -> Sim_time.compare ta tb)
  in
  let capacity =
    Stdlib.max default_event_capacity
      (let n = List.length all_events in
       if n = 0 then 1 else n)
  in
  let merged = make ~event_capacity:capacity () in
  List.iter
    (fun c ->
      Metrics.merge_into ~into:merged.metrics c.metrics;
      Array.iteri
        (fun i n -> merged.kind_counts.(i) <- merged.kind_counts.(i) + n)
        c.kind_counts)
    ctxs;
  List.iter (fun ev -> Ring.push merged.events ev) all_events;
  merged

(* --- Per-instance counter handles -------------------------------------

   Resolved once per context: [cache] remembers the registry the counter
   came from, so a fresh context (each campaign job installs one) is
   detected by a physical compare and re-resolved. *)

type counter_handle = {
  name : string;
  labels : Metrics.labels;
  mutable cache : (Metrics.t * Metrics.counter) option;
}

let counter_handle ?(labels = []) name = { name; labels; cache = None }

let resolve h m =
  let c = Metrics.counter m ~labels:h.labels h.name in
  h.cache <- Some (m, c);
  c

let incr_handle h =
  match (Domain.DLS.get slot_key).cur with
  | None -> ()
  | Some ctx -> (
      match h.cache with
      | Some (m, c) when m == ctx.metrics -> Metrics.incr c
      | _ -> Metrics.incr (resolve h ctx.metrics))

let register_handle h =
  match (Domain.DLS.get slot_key).cur with
  | None -> ()
  | Some ctx -> ignore (resolve h ctx.metrics)

(* --- Registry conveniences (lookup per call; fine off hot paths) ----- *)

let incr_counter ?labels name =
  match (Domain.DLS.get slot_key).cur with
  | None -> ()
  | Some c -> Metrics.incr (Metrics.counter c.metrics ?labels name)

let add_counter ?labels name n =
  match (Domain.DLS.get slot_key).cur with
  | None -> ()
  | Some c -> Metrics.add (Metrics.counter c.metrics ?labels name) n

let observe ?labels name v =
  match (Domain.DLS.get slot_key).cur with
  | None -> ()
  | Some c -> Metrics.observe (Metrics.histogram c.metrics ?labels name) v

let set_gauge ?labels name v =
  match (Domain.DLS.get slot_key).cur with
  | None -> ()
  | Some c -> Metrics.set (Metrics.gauge c.metrics ?labels name) v
