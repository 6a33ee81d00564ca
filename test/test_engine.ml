(* ef_sim: Metrics and the Engine integration runs *)

module Bgp = Ef_bgp
module N = Ef_netsim
module Ef = Edge_fabric
module S = Ef_sim
open Helpers

let tiny = N.Scenario.tiny

let engine_config ?(controller = true) ?(cycle_s = 60) ?(duration_s = 3600)
    ?(use_sampling = true) ?(start_s = 18 * 3600) () =
  S.Engine.make_config ~cycle_s ~duration_s ~start_s
    ~controller_enabled:controller ~use_sampling ~seed:3 ()

(* --- Metrics ----------------------------------------------------------- *)

let row ?(t = 0) ?(offered = 10e9) ?(detoured = 1e9) ?(ifaces = []) () =
  {
    S.Metrics.row_time_s = t;
    offered_bps = offered;
    detoured_bps = detoured;
    overrides_active = 1;
    overrides_added = 0;
    overrides_removed = 0;
    ifaces;
    dropped_bps = 0.0;
    dropped_preferred_bps = 5e8;
    weighted_rtt_ms = 40.0;
    weighted_rtt_preferred_ms = 45.0;
    residual_overloads = 0;
    detour_levels = [ (1, 8e8); (2, 2e8) ];
    perf_overrides_active = 0;
  }

let iface_u id ~cap ~actual ~preferred =
  {
    S.Metrics.u_iface_id = id;
    capacity_bps = cap;
    actual_bps = actual;
    preferred_bps = preferred;
  }

let test_metrics_peaks_and_overloads () =
  let m = S.Metrics.create () in
  S.Metrics.record m
    (row ~t:0 ~ifaces:[ iface_u 0 ~cap:10e9 ~actual:5e9 ~preferred:9e9 ] ());
  S.Metrics.record m
    (row ~t:60 ~ifaces:[ iface_u 0 ~cap:10e9 ~actual:9e9 ~preferred:12e9 ] ());
  (match S.Metrics.peak_utilization m `Actual with
  | [ (0, u) ] -> Helpers.check_float "actual peak" 0.9 u
  | _ -> Alcotest.fail "bad peaks");
  (match S.Metrics.peak_utilization m `Preferred with
  | [ (0, u) ] -> Helpers.check_float "preferred peak" 1.2 u
  | _ -> Alcotest.fail "bad peaks");
  Helpers.check_float "none overloaded actual" 0.0
    (S.Metrics.overloaded_iface_fraction m `Actual ~threshold:1.0);
  Helpers.check_float "all overloaded preferred" 1.0
    (S.Metrics.overloaded_iface_fraction m `Preferred ~threshold:1.0)

let test_metrics_detour_series () =
  let m = S.Metrics.create () in
  S.Metrics.record m (row ~t:0 ~offered:10e9 ~detoured:1e9 ());
  S.Metrics.record m (row ~t:60 ~offered:10e9 ~detoured:3e9 ());
  Alcotest.(check (list (pair int (float 1e-9)))) "series"
    [ (0, 0.1); (60, 0.3) ]
    (S.Metrics.detour_fraction_series m);
  Helpers.check_float "mean" 0.2 (S.Metrics.mean_detour_fraction m)

let test_metrics_level_shares () =
  let m = S.Metrics.create () in
  S.Metrics.record m (row ());
  S.Metrics.record m (row ());
  let shares = S.Metrics.detour_level_shares m in
  Alcotest.(check int) "two levels" 2 (List.length shares);
  Helpers.check_float "level 1 share" 0.8 (List.assoc 1 shares);
  Helpers.check_float "level 2 share" 0.2 (List.assoc 2 shares)

let test_metrics_lifetimes () =
  let m = S.Metrics.create () in
  Alcotest.(check bool) "empty" true (Option.is_none (S.Metrics.lifetime_cdf m));
  S.Metrics.record_removals m
    [
      { S.Metrics.removed_prefix = prefix "10.0.0.0/24"; lifetime_s = 60 };
      { S.Metrics.removed_prefix = prefix "10.0.1.0/24"; lifetime_s = 120 };
    ];
  match S.Metrics.lifetime_cdf m with
  | None -> Alcotest.fail "no cdf"
  | Some cdf -> Helpers.check_float "median" 90.0 (Ef_stats.Cdf.median cdf)

(* --- Engine integration ----------------------------------------------- *)

let test_engine_deterministic () =
  let run () =
    let e = S.Engine.create ~config:(engine_config ~duration_s:600 ()) tiny in
    S.Engine.run e
  in
  let m1 = run () and m2 = run () in
  let rows1 = S.Metrics.rows m1 and rows2 = S.Metrics.rows m2 in
  Alcotest.(check int) "same cycles" (List.length rows1) (List.length rows2);
  List.iter2
    (fun r1 r2 ->
      Helpers.check_float "same offered" r1.S.Metrics.offered_bps
        r2.S.Metrics.offered_bps;
      Helpers.check_float "same detoured" r1.S.Metrics.detoured_bps
        r2.S.Metrics.detoured_bps)
    rows1 rows2

let test_engine_cycle_count () =
  let e = S.Engine.create ~config:(engine_config ~duration_s:600 ~cycle_s:60 ()) tiny in
  let m = S.Engine.run e in
  Alcotest.(check int) "10 cycles" 10 (S.Metrics.cycle_count m)

(* a zero period or a negative window is rejected up front, not left to
   divide by zero (or run zero steps) inside [run]; a zero-length window
   is a valid empty run *)
let test_engine_rejects_bad_config () =
  let create ~cycle_s ~duration_s () =
    ignore (S.Engine.create ~config:(engine_config ~cycle_s ~duration_s ()) tiny)
  in
  Alcotest.check_raises "cycle_s = 0"
    (Invalid_argument "Engine.create: cycle_s must be positive")
    (create ~cycle_s:0 ~duration_s:600);
  Alcotest.check_raises "cycle_s < 0"
    (Invalid_argument "Engine.create: cycle_s must be positive")
    (create ~cycle_s:(-300) ~duration_s:600);
  Alcotest.check_raises "duration_s < 0"
    (Invalid_argument "Engine.create: duration_s must be non-negative")
    (create ~cycle_s:60 ~duration_s:(-1));
  let e = S.Engine.create ~config:(engine_config ~duration_s:0 ()) tiny in
  Alcotest.(check int) "empty window" 0 (S.Metrics.cycle_count (S.Engine.run e))

let test_engine_controller_never_worse () =
  (* on the same world and demand, the controller's placement must never
     drop more than BGP-only would *)
  let on = S.Engine.create ~config:(engine_config ~controller:true ()) tiny in
  let m = S.Engine.run on in
  List.iter
    (fun row ->
      Alcotest.(check bool) "drops never exceed preferred" true
        (row.S.Metrics.dropped_bps <= row.S.Metrics.dropped_preferred_bps +. 1.0))
    (S.Metrics.rows m)

let test_engine_detours_only_with_controller () =
  let off = S.Engine.create ~config:(engine_config ~controller:false ()) tiny in
  let m = S.Engine.run off in
  List.iter
    (fun row ->
      Helpers.check_float "no detours" 0.0 row.S.Metrics.detoured_bps;
      Alcotest.(check int) "no overrides" 0 row.S.Metrics.overrides_active)
    (S.Metrics.rows m)

let test_engine_offered_follows_demand () =
  let e = S.Engine.create ~config:(engine_config ~controller:false ()) tiny in
  let m = S.Engine.run e in
  List.iter
    (fun row ->
      Alcotest.(check bool) "offered positive" true (row.S.Metrics.offered_bps > 0.0))
    (S.Metrics.rows m)

let test_engine_estimates_track_truth () =
  (* after a few cycles of EWMA warm-up, the controller's estimated total
     must be within ~15% of true demand *)
  let e = S.Engine.create ~config:(engine_config ()) tiny in
  for _ = 1 to 10 do
    ignore (S.Engine.step e)
  done;
  let truth = S.Engine.true_rates e ~time_s:(S.Engine.now_s e) in
  let total_truth = List.fold_left (fun a (_, r) -> a +. r) 0.0 truth in
  let snap = S.Engine.snapshot_now e in
  let total_est = Ef_collector.Snapshot.total_rate_bps snap in
  let err = Float.abs (total_est -. total_truth) /. total_truth in
  if err > 0.15 then Alcotest.failf "estimation error %f" err

let test_engine_last_state_consistent () =
  let e = S.Engine.create ~config:(engine_config ()) tiny in
  let row = S.Engine.step e in
  match S.Engine.last_state e with
  | None -> Alcotest.fail "no state"
  | Some st ->
      let actual_total = Ef.Projection.total_bps st.S.Engine.actual in
      Helpers.check_float_eps 1.0 "state matches row" row.S.Metrics.offered_bps
        actual_total;
      Helpers.check_float_eps 1.0 "detoured matches" row.S.Metrics.detoured_bps
        (Ef.Projection.overridden_bps st.S.Engine.actual)

let test_engine_flash_crowd_detour () =
  (* force a flash crowd on the biggest prefix of the private peer: the
     controller must start detouring during the event *)
  let world = N.Topo_gen.generate tiny.N.Scenario.topo in
  let big_private_prefix =
    let rib = N.Pop.rib world.N.Topo_gen.pop in
    List.filter
      (fun p ->
        match Bgp.Rib.best rib p with
        | Some r -> Bgp.Route.peer_kind r = Bgp.Peer.Private_peer
        | None -> false)
      world.N.Topo_gen.all_prefixes
    |> List.sort (fun a b ->
           compare (world.N.Topo_gen.prefix_weight b) (world.N.Topo_gen.prefix_weight a))
    |> List.hd
  in
  let event =
    {
      Ef_traffic.Demand.event_prefix = big_private_prefix;
      start_s = (18 * 3600) + 300;
      duration_s = 1800;
      multiplier = 12.0;
    }
  in
  let config = { (engine_config ~use_sampling:false ()) with S.Engine.events = [ event ] } in
  let e = S.Engine.create ~config tiny in
  let m = S.Engine.run e in
  let in_event =
    List.filter
      (fun r ->
        r.S.Metrics.row_time_s >= (18 * 3600) + 300
        && r.S.Metrics.row_time_s < (18 * 3600) + 300 + 1800)
      (S.Metrics.rows m)
  in
  Alcotest.(check bool) "event cycles recorded" true (in_event <> []);
  Alcotest.(check bool) "controller reacted" true
    (List.exists (fun r -> r.S.Metrics.detoured_bps > 0.0) in_event);
  (* and kept the network loss-free *)
  List.iter
    (fun r -> Helpers.check_float "no drops" 0.0 r.S.Metrics.dropped_bps)
    in_event

let test_engine_perf_aware_improves_rtt () =
  (* with measurements on and the perf stage enabled, traffic-weighted
     RTT must be no worse than the capacity-only controller's on the same
     world, and some perf overrides must engage *)
  let base_cfg =
    {
      (engine_config ~duration_s:1800 ~use_sampling:false ()) with
      S.Engine.measure_altpaths = true;
    }
  in
  let run perf =
    let e = S.Engine.create ~config:{ base_cfg with S.Engine.perf_aware = perf } tiny in
    S.Engine.run e
  in
  let plain = run false and perf = run true in
  let last m = List.nth (S.Metrics.rows m) (S.Metrics.cycle_count m - 1) in
  Alcotest.(check int) "plain has no perf overrides" 0
    (last plain).S.Metrics.perf_overrides_active;
  Alcotest.(check bool) "perf overrides engaged" true
    ((last perf).S.Metrics.perf_overrides_active > 0);
  Alcotest.(check bool) "rtt no worse" true
    ((last perf).S.Metrics.weighted_rtt_ms
    <= (last plain).S.Metrics.weighted_rtt_ms +. 0.5)

let test_engine_peer_failure_recovery () =
  (* the busiest private peer dies for 20 minutes mid-run: its traffic
     must keep flowing via alternates (no drops beyond BGP-only), any
     overrides that targeted it go stale safely, and after recovery the
     preferred placement returns to it *)
  let world = N.Topo_gen.generate tiny.N.Scenario.topo in
  let victim =
    List.find
      (fun p -> Bgp.Peer.kind p = Bgp.Peer.Private_peer)
      (N.Pop.peers world.N.Topo_gen.pop)
  in
  let start = 18 * 3600 in
  let victim_iface =
    N.Iface.id (N.Pop.iface_of_peer world.N.Topo_gen.pop ~peer_id:(Bgp.Peer.id victim))
  in
  Alcotest.(check int) "victim is alone on its PNI" 1
    (List.length (N.Pop.peers_on_iface world.N.Topo_gen.pop ~iface_id:victim_iface));
  (* on a single-peer PNI the session outage is a link outage: one flap
     window, no onset jitter at period 4 *)
  let outage =
    Ef_fault.Plan.Link_flap
      {
        iface_id = victim_iface;
        from_s = start + 600;
        until_s = start + 1800;
        period_s = 4;
        down_s = 1200;
      }
  in
  let config =
    {
      (engine_config ~use_sampling:false ~duration_s:3600 ()) with
      S.Engine.faults = Some (Ef_fault.Plan.make [ outage ]);
    }
  in
  let e = S.Engine.create ~config tiny in
  let carried_before = ref 0.0 and carried_during = ref 0.0 in
  let carried_after = ref 0.0 in
  for _ = 1 to 60 do
    let row = S.Engine.step e in
    let t = row.S.Metrics.row_time_s in
    let load =
      match
        List.find_opt
          (fun u -> u.S.Metrics.u_iface_id = victim_iface)
          row.S.Metrics.ifaces
      with
      | Some u -> u.S.Metrics.actual_bps
      | None -> 0.0
    in
    if t < start + 600 then carried_before := !carried_before +. load
    else if t < start + 1800 then carried_during := !carried_during +. load
    else carried_after := !carried_after +. load;
    (* nothing is ever blackholed: all offered traffic lands somewhere *)
    (match S.Engine.last_state e with
    | Some st ->
        Helpers.check_float_eps 1.0 "no blackhole" 0.0
          (Edge_fabric.Projection.unroutable_bps st.S.Engine.actual)
    | None -> ())
  done;
  Alcotest.(check bool) "peer carried traffic before" true (!carried_before > 0.0);
  Helpers.check_float "nothing during outage" 0.0 !carried_during;
  Alcotest.(check bool) "traffic returns after recovery" true
    (!carried_after > 0.0)

let test_engine_altpath_wired () =
  let config =
    { (engine_config ~duration_s:300 ()) with S.Engine.measure_altpaths = true }
  in
  let e = S.Engine.create ~config tiny in
  ignore (S.Engine.run e);
  match S.Engine.measurer e with
  | None -> Alcotest.fail "measurer missing"
  | Some m ->
      Alcotest.(check bool) "samples collected" true
        (Ef_altpath.Path_store.paths_measured (Ef_altpath.Measurer.store m) > 0)

let suite =
  [
    Alcotest.test_case "metrics peaks/overloads" `Quick
      test_metrics_peaks_and_overloads;
    Alcotest.test_case "metrics detour series" `Quick test_metrics_detour_series;
    Alcotest.test_case "metrics level shares" `Quick test_metrics_level_shares;
    Alcotest.test_case "metrics lifetimes" `Quick test_metrics_lifetimes;
    Alcotest.test_case "engine deterministic" `Quick test_engine_deterministic;
    Alcotest.test_case "engine cycle count" `Quick test_engine_cycle_count;
    Alcotest.test_case "engine rejects bad cycle/duration" `Quick
      test_engine_rejects_bad_config;
    Alcotest.test_case "engine controller never worse" `Slow
      test_engine_controller_never_worse;
    Alcotest.test_case "engine detours need controller" `Slow
      test_engine_detours_only_with_controller;
    Alcotest.test_case "engine offered positive" `Slow
      test_engine_offered_follows_demand;
    Alcotest.test_case "engine estimates track" `Quick
      test_engine_estimates_track_truth;
    Alcotest.test_case "engine last state" `Quick test_engine_last_state_consistent;
    Alcotest.test_case "engine flash crowd" `Slow test_engine_flash_crowd_detour;
    Alcotest.test_case "engine perf-aware" `Slow test_engine_perf_aware_improves_rtt;
    Alcotest.test_case "engine peer failure" `Slow test_engine_peer_failure_recovery;
    Alcotest.test_case "engine altpath wired" `Quick test_engine_altpath_wired;
  ]
