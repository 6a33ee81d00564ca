(* ef_altpath: Dscp, Path_store, Measurer, Perf_policy *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
module A = Ef_altpath
open Helpers

let test_dscp_levels () =
  Alcotest.(check bool) "level 0" true
    (A.Dscp.of_preference_level 0 = Some A.Dscp.default);
  Alcotest.(check bool) "level 1" true (A.Dscp.of_preference_level 1 = Some A.Dscp.alt1);
  Alcotest.(check bool) "level 4 unmeasurable" true
    (A.Dscp.of_preference_level 4 = None);
  List.iteri
    (fun i d ->
      Alcotest.(check (option int)) "roundtrip" (Some (i + 1))
        (A.Dscp.to_preference_level d))
    A.Dscp.all_alternates;
  Alcotest.(check bool) "of_int validates" true (A.Dscp.of_int 99 = None)

let test_path_store_median () =
  let store = A.Path_store.create () in
  let p = prefix "10.0.0.0/24" in
  List.iter
    (fun rtt -> A.Path_store.observe store ~prefix:p ~peer_id:1 ~rtt_ms:rtt)
    [ 10.0; 30.0; 20.0 ];
  Alcotest.(check (option (float 1e-9))) "median" (Some 20.0)
    (A.Path_store.median_rtt_ms store ~prefix:p ~peer_id:1);
  Alcotest.(check int) "count" 3 (A.Path_store.sample_count store ~prefix:p ~peer_id:1);
  Alcotest.(check (option (float 1e-9))) "unknown path" None
    (A.Path_store.median_rtt_ms store ~prefix:p ~peer_id:2)

let test_path_store_window_eviction () =
  let store = A.Path_store.create () in
  let p = prefix "10.0.0.0/24" in
  let w = A.Path_store.window in
  (* old high samples roll out of the window: a full window of 100s,
     then a full window and five more of 10s *)
  for _ = 1 to w do
    A.Path_store.observe store ~prefix:p ~peer_id:1 ~rtt_ms:100.0
  done;
  for _ = 1 to w + 5 do
    A.Path_store.observe store ~prefix:p ~peer_id:1 ~rtt_ms:10.0
  done;
  Alcotest.(check (option (float 1e-9))) "only recent" (Some 10.0)
    (A.Path_store.median_rtt_ms store ~prefix:p ~peer_id:1);
  Alcotest.(check int) "window bound" w
    (A.Path_store.sample_count store ~prefix:p ~peer_id:1)

let test_path_store_compare () =
  let store = A.Path_store.create () in
  let p = prefix "10.0.0.0/24" in
  List.iter
    (fun (peer, rtt) -> A.Path_store.observe store ~prefix:p ~peer_id:peer ~rtt_ms:rtt)
    [ (0, 50.0); (1, 40.0); (2, 80.0) ];
  match A.Path_store.compare_paths store ~prefix:p ~primary:0 ~alternates:[ 1; 2 ] with
  | None -> Alcotest.fail "no comparison"
  | Some cmp ->
      Alcotest.(check int) "best alt" 1 cmp.A.Path_store.best_alt_peer;
      Helpers.check_float "delta" (-10.0) cmp.A.Path_store.delta_ms

let test_path_store_compare_needs_data () =
  let store = A.Path_store.create () in
  let p = prefix "10.0.0.0/24" in
  A.Path_store.observe store ~prefix:p ~peer_id:0 ~rtt_ms:10.0;
  Alcotest.(check bool) "no alternates measured" true
    (Option.is_none
       (A.Path_store.compare_paths store ~prefix:p ~primary:0 ~alternates:[ 1 ]))

(* --- Measurer over the tiny world ------------------------------------- *)

let world = lazy (N.Topo_gen.generate N.Topo_gen.small_config)

let snapshot_of_world () = Gen.snapshot_of_world (Lazy.force world)

let latency_of_world () =
  let w = Lazy.force world in
  N.Latency.create
    ~pop_region:(N.Pop.region w.N.Topo_gen.pop)
    ~origin_region:w.N.Topo_gen.origin_region ~seed:5

let test_measurer_collects_samples () =
  let m = A.Measurer.create ~seed:3 in
  let snap = snapshot_of_world () in
  let report =
    A.Measurer.cycle m snap ~latency:(latency_of_world ()) ~utilization:(fun _ -> 0.5)
  in
  Alcotest.(check bool) "measured prefixes" true (report.A.Measurer.measured_prefixes <> []);
  Alcotest.(check bool) "took samples" true (report.A.Measurer.samples_taken > 0);
  Alcotest.(check bool) "sliver is small" true
    (report.A.Measurer.diverted_bps < 0.05 *. C.Snapshot.total_rate_bps snap);
  Alcotest.(check bool) "store populated" true
    (A.Path_store.paths_measured (A.Measurer.store m) > 0)

let test_measurer_comparisons_available () =
  let m = A.Measurer.create ~seed:4 in
  let snap = snapshot_of_world () in
  (* several cycles so most prefixes get both primary and alternates *)
  for _ = 1 to 5 do
    ignore
      (A.Measurer.cycle m snap ~latency:(latency_of_world ())
         ~utilization:(fun _ -> 0.2))
  done;
  let comparisons = A.Measurer.comparisons m snap in
  Alcotest.(check bool) "some comparisons" true (comparisons <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "medians positive" true
        (c.A.Path_store.primary_median_ms > 0.0
        && c.A.Path_store.best_alt_median_ms > 0.0))
    comparisons

let test_measurer_congestion_visible () =
  (* the same path measured under congestion shows a higher RTT *)
  let w = Lazy.force world in
  let snap = snapshot_of_world () in
  let latency = latency_of_world () in
  let m1 = A.Measurer.create ~seed:7 in
  let m2 = A.Measurer.create ~seed:7 in
  ignore (A.Measurer.cycle m1 snap ~latency ~utilization:(fun _ -> 0.2));
  ignore (A.Measurer.cycle m2 snap ~latency ~utilization:(fun _ -> 1.15));
  (* pick any prefix measured by both *)
  let p =
    List.find
      (fun p ->
        A.Path_store.sample_count (A.Measurer.store m1) ~prefix:p ~peer_id:0 > 0
        && A.Path_store.sample_count (A.Measurer.store m2) ~prefix:p ~peer_id:0 > 0)
      w.N.Topo_gen.all_prefixes
  in
  match
    ( A.Path_store.median_rtt_ms (A.Measurer.store m1) ~prefix:p ~peer_id:0,
      A.Path_store.median_rtt_ms (A.Measurer.store m2) ~prefix:p ~peer_id:0 )
  with
  | Some calm, Some congested ->
      Alcotest.(check bool) "congestion inflates" true (congested > calm +. 50.0)
  | _ -> Alcotest.fail "missing medians"

(* --- Perf_policy -------------------------------------------------------- *)

let test_perf_policy_suggests_better_path () =
  let fx = Test_core.fixture () in
  let snap = Test_core.snapshot fx [ (Test_core.pfx_a, 1e9) ] in
  let store = A.Path_store.create () in
  (* private (peer 0) is the primary but measures slow; public (peer 1)
     measures 30ms faster *)
  List.iter
    (fun (peer, rtt) ->
      A.Path_store.observe store ~prefix:Test_core.pfx_a ~peer_id:peer ~rtt_ms:rtt)
    [ (0, 80.0); (0, 82.0); (1, 50.0); (1, 52.0); (2, 90.0) ];
  let projection = Edge_fabric.Projection.project snap in
  let suggestions = A.Perf_policy.suggest store snap ~projection in
  (match suggestions with
  | [ s ] ->
      Alcotest.check prefix_t "prefix" Test_core.pfx_a s.A.Perf_policy.sug_prefix;
      Alcotest.(check int) "target is public" 1
        (Bgp.Route.peer_id s.A.Perf_policy.sug_target);
      Alcotest.(check bool) "improvement ~30ms" true
        (s.A.Perf_policy.improvement_ms > 25.0)
  | l -> Alcotest.failf "expected one suggestion, got %d" (List.length l));
  let overrides = A.Perf_policy.to_overrides suggestions ~snapshot:snap ~projection in
  match overrides with
  | [ o ] ->
      Alcotest.(check int) "level" 1 o.Edge_fabric.Override.preference_level;
      Alcotest.(check int) "to public iface"
        (N.Iface.id fx.Test_core.iface_public)
        o.Edge_fabric.Override.to_iface
  | l -> Alcotest.failf "expected one override, got %d" (List.length l)

let test_perf_policy_respects_tolerance () =
  let fx = Test_core.fixture () in
  let snap = Test_core.snapshot fx [ (Test_core.pfx_a, 1e9) ] in
  let store = A.Path_store.create () in
  (* alternate only 3ms better: below the 10ms bar *)
  List.iter
    (fun (peer, rtt) ->
      A.Path_store.observe store ~prefix:Test_core.pfx_a ~peer_id:peer ~rtt_ms:rtt)
    [ (0, 50.0); (1, 47.0) ];
  let projection = Edge_fabric.Projection.project snap in
  Alcotest.(check int) "no suggestion" 0
    (List.length (A.Perf_policy.suggest store snap ~projection))

let test_perf_policy_capacity_guard () =
  let fx = Test_core.fixture () in
  (* public port is nearly full: even a much faster path is not suggested *)
  let rib = N.Pop.rib fx.Test_core.pop in
  let bg = prefix "10.9.0.0/16" in
  ignore
    (Bgp.Rib.announce rib ~peer_id:1 bg
       (attrs ~path:[ 200; 900 ] ~next_hop:"172.16.0.1" ()));
  let snap = Test_core.snapshot fx [ (Test_core.pfx_a, 2e9); (bg, 8.4e9) ] in
  let store = A.Path_store.create () in
  List.iter
    (fun (peer, rtt) ->
      A.Path_store.observe store ~prefix:Test_core.pfx_a ~peer_id:peer ~rtt_ms:rtt)
    [ (0, 80.0); (1, 40.0) ];
  let projection = Edge_fabric.Projection.project snap in
  Alcotest.(check int) "guarded" 0
    (List.length (A.Perf_policy.suggest store snap ~projection))

let test_perf_policy_guard_is_cumulative () =
  let fx = Test_core.fixture () in
  (* public port at 0.70; pfx_a and pfx_b (1 Gbps each) both measure
     faster via peer 1. Either move alone keeps it at 0.80, under the
     0.85 guard; both together would put it at 0.90 *)
  let rib = N.Pop.rib fx.Test_core.pop in
  let bg = prefix "10.9.0.0/16" in
  ignore
    (Bgp.Rib.announce rib ~peer_id:1 bg
       (attrs ~path:[ 200; 900 ] ~next_hop:"172.16.0.1" ()));
  ignore
    (Bgp.Rib.announce rib ~peer_id:1 Test_core.pfx_b
       (attrs ~path:[ 200; 300 ] ~next_hop:"172.16.0.1" ()));
  let snap =
    Test_core.snapshot fx
      [ (Test_core.pfx_a, 1e9); (Test_core.pfx_b, 1e9); (bg, 7e9) ]
  in
  let store = A.Path_store.create () in
  List.iter
    (fun (p, peer, rtt) ->
      A.Path_store.observe store ~prefix:p ~peer_id:peer ~rtt_ms:rtt)
    [
      (Test_core.pfx_a, 0, 80.0);
      (Test_core.pfx_a, 1, 40.0);
      (Test_core.pfx_b, 0, 90.0);
      (Test_core.pfx_b, 1, 40.0);
    ];
  let projection = Edge_fabric.Projection.project snap in
  let public = N.Iface.id fx.Test_core.iface_public in
  Helpers.check_float "public starts at 0.70" 0.70
    (Edge_fabric.Projection.load_bps projection ~iface_id:public
    /. N.Iface.capacity_bps fx.Test_core.iface_public);
  match A.Perf_policy.suggest store snap ~projection with
  | [ s ] ->
      (* the larger improvement wins the room *)
      Alcotest.check prefix_t "pfx_b first" Test_core.pfx_b
        s.A.Perf_policy.sug_prefix
  | l -> Alcotest.failf "expected one suggestion, got %d" (List.length l)

let suite =
  [
    Alcotest.test_case "dscp levels" `Quick test_dscp_levels;
    Alcotest.test_case "path store median" `Quick test_path_store_median;
    Alcotest.test_case "path store window" `Quick test_path_store_window_eviction;
    Alcotest.test_case "path store compare" `Quick test_path_store_compare;
    Alcotest.test_case "path store needs data" `Quick
      test_path_store_compare_needs_data;
    Alcotest.test_case "measurer collects" `Quick test_measurer_collects_samples;
    Alcotest.test_case "measurer comparisons" `Quick
      test_measurer_comparisons_available;
    Alcotest.test_case "measurer sees congestion" `Quick
      test_measurer_congestion_visible;
    Alcotest.test_case "perf policy suggests" `Quick
      test_perf_policy_suggests_better_path;
    Alcotest.test_case "perf policy tolerance" `Quick
      test_perf_policy_respects_tolerance;
    Alcotest.test_case "perf policy capacity guard" `Quick
      test_perf_policy_capacity_guard;
    Alcotest.test_case "perf policy guard is cumulative" `Quick
      test_perf_policy_guard_is_cumulative;
  ]
