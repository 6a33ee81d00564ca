type t = { network : Ipv4.t; length : int }

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length out of [0,32]";
  { network = Ipv4.apply_mask addr len; length = len }

let of_string_opt s =
  match String.index_opt s '/' with
  | None -> None
  | Some i -> (
      let addr = String.sub s 0 i in
      let len = String.sub s (i + 1) (String.length s - i - 1) in
      match (Ipv4.of_string_opt addr, int_of_string_opt len) with
      | Some addr, Some len when len >= 0 && len <= 32 -> Some (make addr len)
      | _ -> None)

let of_string s =
  match of_string_opt s with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string: %S" s)

let v = of_string
let network t = t.network
let length t = t.length
let to_string t = Printf.sprintf "%s/%d" (Ipv4.to_string t.network) t.length
let pp fmt t = Format.pp_print_string fmt (to_string t)

let compare a b =
  match Ipv4.compare a.network b.network with
  | 0 -> Int.compare a.length b.length
  | c -> c

let equal a b = a.length = b.length && Ipv4.equal a.network b.network
let hash t = (Ipv4.hash t.network * 33) + t.length

(* murmur3's fmix64 finalizer on 63-bit ints (its multipliers cut to
   62 bits, still odd): every input bit reaches the low bits [Hashtbl]
   picks buckets by *)
let mix h =
  let h = h lxor (h lsr 33) in
  let h = h * 0x3f51afd7ed558ccd in
  let h = h lxor (h lsr 33) in
  let h = h * 0x04ceb9fe1a85ec53 in
  h lxor (h lsr 33)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash t = mix (hash t)
end)

let mem addr t = Ipv4.equal (Ipv4.apply_mask addr t.length) t.network

let subsumes a b =
  a.length <= b.length && Ipv4.equal (Ipv4.apply_mask b.network a.length) a.network

let overlaps a b = subsumes a b || subsumes b a

let split t =
  if t.length >= 32 then invalid_arg "Prefix.split: /32 has no children";
  let len = t.length + 1 in
  let left = { network = t.network; length = len } in
  let right_bit = Int32.shift_left 1l (32 - len) in
  let right =
    { network = Ipv4.of_int32 (Int32.logor (Ipv4.to_int32 t.network) right_bit);
      length = len }
  in
  (left, right)

let subnets t len =
  if len < t.length then invalid_arg "Prefix.subnets: target shorter than prefix";
  if len > 32 then invalid_arg "Prefix.subnets: length out of range";
  let bits = len - t.length in
  if bits > 20 then invalid_arg "Prefix.subnets: expansion too large";
  let count = 1 lsl bits in
  let step = 1 lsl (32 - len) in
  List.init count (fun i ->
      { network = Ipv4.add t.network (i * step); length = len })

let size t = Float.pow 2.0 (float_of_int (32 - t.length))
let default = { network = Ipv4.any; length = 0 }
