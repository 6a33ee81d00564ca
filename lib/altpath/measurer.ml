module Bgp = Ef_bgp
module Snapshot = Ef_collector.Snapshot
open Ef_util

let prefixes_per_cycle = 200
let samples_per_path = 8

(* alternates measured: the paper's DSCP classes express three *)
let max_levels = 3
let sliver_fraction = 0.005

type t = {
  rng : Rng.t;
  store : Path_store.t;
}

let create ~seed = { rng = Rng.create seed; store = Path_store.create () }
let store t = t.store

type cycle_report = {
  measured_prefixes : Bgp.Prefix.t list;
  samples_taken : int;
  diverted_bps : float;
}

let measurable_routes snapshot prefix =
  (* primary + up to max_levels alternates, skipping levels DSCP cannot
     express *)
  let ranked = Snapshot.routes snapshot prefix in
  List.filteri (fun level _ -> level <= max_levels) ranked

let cycle t snapshot ~latency ~utilization =
  let rated = Snapshot.prefix_rates snapshot in
  let pool = Array.of_list rated in
  let chosen =
    if Array.length pool = 0 then [||]
    else Rng.sample_without_replacement t.rng prefixes_per_cycle pool
  in
  let samples = ref 0 in
  let diverted = ref 0.0 in
  let measured = ref [] in
  Array.iter
    (fun (prefix, rate) ->
      let routes = measurable_routes snapshot prefix in
      match routes with
      | [] | [ _ ] -> () (* nothing to compare *)
      | _ ->
          measured := prefix :: !measured;
          diverted := !diverted +. (rate *. sliver_fraction);
          List.iter
            (fun route ->
              (* a path's RTT is deterministic within a cycle; only the
                 lognormal measurement noise differs sample to sample *)
              let util =
                match Snapshot.iface_of_route snapshot route with
                | None -> 0.0
                | Some iface -> utilization (Ef_netsim.Iface.id iface)
              in
              let base =
                Ef_netsim.Latency.rtt_ms latency prefix route ~utilization:util
              in
              let path =
                Path_store.path t.store ~prefix
                  ~peer_id:(Bgp.Route.peer_id route)
              in
              for _ = 1 to samples_per_path do
                let noise = Rng.lognormal t.rng ~mu:0.0 ~sigma:0.05 in
                Path_store.push path (base *. noise)
              done;
              samples := !samples + samples_per_path)
            routes)
    chosen;
  {
    measured_prefixes = List.rev !measured;
    samples_taken = !samples;
    diverted_bps = !diverted;
  }

let comparisons t snapshot =
  List.filter_map
    (fun (prefix, _rate) ->
      match Snapshot.routes snapshot prefix with
      | [] | [ _ ] -> None
      | primary :: alts ->
          Path_store.compare_paths t.store ~prefix
            ~primary:(Bgp.Route.peer_id primary)
            ~alternates:(List.map Bgp.Route.peer_id alts))
    (Snapshot.prefix_rates snapshot)
