type t = {
  id : int;
  name : string;
  capacity_bps : float;
  shared : bool;
}

let make ~id ~name ~capacity_bps ~shared =
  if capacity_bps <= 0.0 then invalid_arg "Iface.make: capacity must be positive";
  { id; name; capacity_bps; shared }

let id t = t.id
let name t = t.name
let capacity_bps t = t.capacity_bps
let shared t = t.shared
let derate t ~factor =
  if factor >= 1.0 then t
  else { t with capacity_bps = Float.max 1.0 (t.capacity_bps *. factor) }

let compare a b = Int.compare a.id b.id
let equal a b = a.id = b.id

let pp fmt t =
  Format.fprintf fmt "%s(#%d, %a%s)" t.name t.id Ef_util.Units.pp_rate
    t.capacity_bps
    (if t.shared then ", shared" else "")
