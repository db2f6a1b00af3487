type sink = Silent | Print | Retain

let default_capacity = 1 lsl 16

type state = {
  mutable sink : sink;
  mutable events : (Sim_time.t * string * string) Ring.t;
}

let st = { sink = Silent; events = Ring.create ~capacity:default_capacity }

let set_sink s = st.sink <- s
let sink () = st.sink
let enabled () = st.sink <> Silent

let set_capacity n = st.events <- Ring.create ~capacity:n
let capacity () = Ring.capacity st.events
let dropped () = Ring.dropped st.events

let emit ~time ~cat msg =
  match st.sink with
  | Silent -> ()
  | Print -> Format.printf "[%a] %-10s %s@." Sim_time.pp time cat msg
  | Retain -> Ring.push st.events (time, cat, msg)

let emitf ~time ~cat fmt =
  if st.sink = Silent then
    Format.ifprintf Format.std_formatter fmt
  else Format.kasprintf (fun msg -> emit ~time ~cat msg) fmt

let retained () = Ring.to_list st.events
let clear () = Ring.clear st.events
