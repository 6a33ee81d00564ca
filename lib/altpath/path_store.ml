module Bgp = Ef_bgp

type path_key = {
  key_prefix : Bgp.Prefix.t;
  key_peer : int;
}

type comparison = {
  cmp_prefix : Bgp.Prefix.t;
  primary_peer : int;
  primary_median_ms : float;
  best_alt_peer : int;
  best_alt_median_ms : float;
  delta_ms : float;
}

module Ktbl = Hashtbl.Make (struct
  type t = path_key

  let equal a b = a.key_peer = b.key_peer && Bgp.Prefix.equal a.key_prefix b.key_prefix
  let hash k = Bgp.Prefix.mix ((Bgp.Prefix.hash k.key_prefix * 31) + k.key_peer)
end)

let window = 64

(* a path's last [window] samples in one flat ring: [len] live slots,
   the oldest at [next - len] (mod [window]); [push] overwrites the
   oldest once the ring is full, the FIFO eviction of a bounded queue *)
type path = {
  ring : Float.Array.t;
  mutable len : int;
  mutable next : int;
}

type t = path Ktbl.t

let create () = Ktbl.create 256

let path t ~prefix ~peer_id =
  let key = { key_prefix = prefix; key_peer = peer_id } in
  match Ktbl.find_opt t key with
  | Some p -> p
  | None ->
      let p = { ring = Float.Array.make window 0.0; len = 0; next = 0 } in
      Ktbl.replace t key p;
      p

let push p rtt_ms =
  Float.Array.set p.ring p.next rtt_ms;
  p.next <- (if p.next = window - 1 then 0 else p.next + 1);
  if p.len < window then p.len <- p.len + 1

let observe t ~prefix ~peer_id ~rtt_ms = push (path t ~prefix ~peer_id) rtt_ms

let sample_count t ~prefix ~peer_id =
  match Ktbl.find_opt t { key_prefix = prefix; key_peer = peer_id } with
  | None -> 0
  | Some p -> p.len

let median_rtt_ms t ~prefix ~peer_id =
  match Ktbl.find_opt t { key_prefix = prefix; key_peer = peer_id } with
  | None -> None
  | Some p when p.len = 0 -> None
  | Some p ->
      (* oldest first, the order the samples arrived in *)
      let oldest = p.next - p.len + window in
      let arr =
        Array.init p.len (fun i ->
            Float.Array.get p.ring ((oldest + i) mod window))
      in
      Array.sort compare arr;
      let n = p.len in
      Some
        (if n mod 2 = 1 then arr.(n / 2)
         else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0)

let compare_paths t ~prefix ~primary ~alternates =
  match median_rtt_ms t ~prefix ~peer_id:primary with
  | None -> None
  | Some primary_median ->
      let alts =
        List.filter_map
          (fun peer ->
            Option.map
              (fun m -> (peer, m))
              (median_rtt_ms t ~prefix ~peer_id:peer))
          alternates
      in
      let best =
        List.fold_left
          (fun acc (peer, m) ->
            match acc with
            | None -> Some (peer, m)
            | Some (_, best_m) when m < best_m -> Some (peer, m)
            | Some _ -> acc)
          None alts
      in
      Option.map
        (fun (best_alt_peer, best_alt_median_ms) ->
          {
            cmp_prefix = prefix;
            primary_peer = primary;
            primary_median_ms = primary_median;
            best_alt_peer;
            best_alt_median_ms;
            delta_ms = best_alt_median_ms -. primary_median;
          })
        best

let paths_measured t = Ktbl.length t
