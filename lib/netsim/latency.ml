module Bgp = Ef_bgp

type t = {
  pop_region : Region.t;
  origin_region : Bgp.Prefix.t -> Region.t;
  seed : int;
}

let create ~pop_region ~origin_region ~seed = { pop_region; origin_region; seed }

(* stable per-(prefix, peer) uniform in [0,1) from a hash *)
let stable_unit t prefix peer_id =
  let h =
    (Bgp.Prefix.hash prefix * 1_000_003) lxor (peer_id * 8191) lxor t.seed
  in
  let mixed =
    let z = Int64.of_int h in
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))
  in
  Int64.to_float (Int64.shift_right_logical mixed 11) /. 9007199254740992.0

let per_hop_penalty_ms = 4.0

let kind_multiplier = function
  | Bgp.Peer.Private_peer -> 0.90
  | Bgp.Peer.Public_peer -> 0.95
  | Bgp.Peer.Route_server -> 1.0
  | Bgp.Peer.Transit -> 1.05

let base_rtt_ms t prefix route =
  let origin = t.origin_region prefix in
  let propagation = Region.base_rtt_ms t.pop_region origin in
  let hops = float_of_int (Bgp.Route.as_path_length route) in
  let jitter =
    (* [0.80, 1.20): a fifth of paths end up meaningfully better or worse
       than their nominal class, so "alternate is better" really occurs *)
    0.80 +. (0.40 *. stable_unit t prefix (Bgp.Route.peer_id route))
  in
  ((propagation *. kind_multiplier (Bgp.Route.peer_kind route))
  +. (hops *. per_hop_penalty_ms))
  *. jitter

let congestion_penalty_ms ~utilization =
  let knee = 0.90 and cap_util = 1.20 and cap_ms = 150.0 in
  if utilization <= knee then 0.0
  else
    let x = (Float.min utilization cap_util -. knee) /. (cap_util -. knee) in
    cap_ms *. x *. x

let rtt_ms t prefix route ~utilization =
  base_rtt_ms t prefix route +. congestion_penalty_ms ~utilization
