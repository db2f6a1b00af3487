(* Fixed GF(2) matrix rows for the sport entropy function.  Row [i] has
   bit [i] set and only higher bits otherwise (a unitriangular matrix), so
   the map is invertible by construction — full rank is what guarantees
   the PathMap covers every residue.  The upper bits come from a splitmix
   constant so consecutive sports still avalanche. *)
let rows =
  let mask_above i = 0xFFFF land lnot ((1 lsl (i + 1)) - 1) in
  let seeds =
    [|
      0x9E37; 0x79B9; 0x7F4A; 0x7C15; 0xBF58; 0x476D; 0x1CE4; 0xE5B9;
      0x94D0; 0x49BB; 0x1331; 0x11EB; 0xD6E8; 0xFEB8; 0x6479; 0x8A5B;
    |]
  in
  Array.init 16 (fun i -> (1 lsl i) lor (seeds.(i) land mask_above i))

let linear16 x =
  let acc = ref 0 in
  for i = 0 to 15 do
    if x land (1 lsl i) <> 0 then acc := !acc lxor rows.(i)
  done;
  !acc

let mix x =
  let z =
    let open Int64 in
    let z = add (of_int x) 0x9E3779B97F4A7C15L in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  Int64.to_int z land max_int

let flow_hash ~src ~dst ~sport ~dport =
  (* The non-sport fields are avalanched together; sport enters via the
     linear entropy function so that PathMap deltas compose by XOR. *)
  let base = mix ((src * 65_599) + dst + (dport * 131)) in
  (base lxor linear16 (sport land 0xFFFF)) land max_int

(* Per-flow memo indexed by the interned flow id.  The entry is validated
   against the full (src, dst, sport, dport) tuple before use, so it is
   pure memoization: stale entries (sport rewrites, interner resets
   between runs) miss the validation and are recomputed in place.  No
   reset hook is needed for correctness. *)
type memo = {
  mutable m_src : int array;
  mutable m_dst : int array;
  mutable m_sport : int array;
  mutable m_dport : int array;
  mutable m_hash : int array;
}

let memo =
  {
    m_src = Array.make 64 (-1);
    m_dst = Array.make 64 0;
    m_sport = Array.make 64 0;
    m_dport = Array.make 64 0;
    m_hash = Array.make 64 0;
  }

let memo_grow m id =
  let len = Array.length m.m_src in
  let nlen = Stdlib.max (id + 1) (2 * len) in
  let grow a fill =
    let na = Array.make nlen fill in
    Array.blit a 0 na 0 len;
    na
  in
  m.m_src <- grow m.m_src (-1);
  m.m_dst <- grow m.m_dst 0;
  m.m_sport <- grow m.m_sport 0;
  m.m_dport <- grow m.m_dport 0;
  m.m_hash <- grow m.m_hash 0

let flow_hash_id ~id ~src ~dst ~sport ~dport =
  if id < 0 then flow_hash ~src ~dst ~sport ~dport
  else begin
    if id >= Array.length memo.m_src then memo_grow memo id;
    if
      Array.unsafe_get memo.m_src id = src
      && Array.unsafe_get memo.m_dst id = dst
      && Array.unsafe_get memo.m_sport id = sport
      && Array.unsafe_get memo.m_dport id = dport
    then Array.unsafe_get memo.m_hash id
    else begin
      let h = flow_hash ~src ~dst ~sport ~dport in
      Array.unsafe_set memo.m_src id src;
      Array.unsafe_set memo.m_dst id dst;
      Array.unsafe_set memo.m_sport id sport;
      Array.unsafe_set memo.m_dport id dport;
      Array.unsafe_set memo.m_hash id h;
      h
    end
  end

let path_of_hash_at ~shift ~hash ~paths =
  if paths <= 0 then invalid_arg "Ecmp_hash.path_of_hash";
  let h = hash lsr shift in
  if paths land (paths - 1) = 0 then h land (paths - 1) else h mod paths

let path_of_hash ~hash ~paths = path_of_hash_at ~shift:0 ~hash ~paths
