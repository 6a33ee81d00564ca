(* Shared seeded fixtures: worlds, demand vectors and snapshots for the
   differential suites and the bench harness. One home for the
   world→snapshot plumbing that test_alloc_diff, test_altpath,
   test_incremental_diff and bench/main previously each re-derived. *)

module N = Ef_netsim
module C = Ef_collector

let world ?(config = N.Topo_gen.small_config) seed =
  N.Topo_gen.generate { config with N.Topo_gen.seed }

(* the canonical demand vector: each prefix at its generated weight of
   the world's peak, optionally scaled *)
let rates_of_world ?(rate_factor = 1.0) (w : N.Topo_gen.world) =
  List.map
    (fun p ->
      ( p,
        w.N.Topo_gen.prefix_weight p *. w.N.Topo_gen.total_peak_bps
        *. rate_factor ))
    w.N.Topo_gen.all_prefixes

let snapshot_of_world ?rate_factor ?(time_s = 0) ?ifaces
    (w : N.Topo_gen.world) =
  C.Snapshot.of_pop ?ifaces w.N.Topo_gen.pop
    ~prefix_rates:(rates_of_world ?rate_factor w)
    ~time_s

let snapshot_of_scenario ?rate_factor ?time_s (s : N.Scenario.t) =
  snapshot_of_world ?rate_factor ?time_s
    (N.Topo_gen.generate s.N.Scenario.topo)

(* capacity-derated interface copies, the way the fault drivers build
   them *)
let derate_ifaces ~factor_of ifaces =
  List.map
    (fun iface -> N.Iface.derate iface ~factor:(factor_of (N.Iface.id iface)))
    ifaces
