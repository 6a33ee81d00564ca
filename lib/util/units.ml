let bps x = x
let kbps x = x *. 1e3
let mbps x = x *. 1e6
let gbps x = x *. 1e9
let tbps x = x *. 1e12
let to_gbps x = x /. 1e9
let to_mbps x = x /. 1e6
let to_millibps x = Int64.of_float (x *. 1000.0)
let of_millibps m = Int64.to_float m /. 1000.0

let pp_rate fmt r =
  let abs = Float.abs r in
  if abs >= 1e12 then Format.fprintf fmt "%.2f Tbps" (r /. 1e12)
  else if abs >= 1e9 then Format.fprintf fmt "%.2f Gbps" (r /. 1e9)
  else if abs >= 1e6 then Format.fprintf fmt "%.1f Mbps" (r /. 1e6)
  else if abs >= 1e3 then Format.fprintf fmt "%.1f Kbps" (r /. 1e3)
  else Format.fprintf fmt "%.0f bps" r

let rate_to_string r = Format.asprintf "%a" pp_rate r

let pp_percent fmt ratio = Format.fprintf fmt "%.1f%%" (ratio *. 100.0)

let seconds_per_day = 86_400

let pp_time_of_day fmt secs =
  let secs = ((secs mod seconds_per_day) + seconds_per_day) mod seconds_per_day in
  Format.fprintf fmt "%02d:%02d" (secs / 3600) (secs mod 3600 / 60)
