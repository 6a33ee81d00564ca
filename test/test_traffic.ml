(* ef_traffic: Demand, Flow, Sflow, Rate_est *)

module Bgp = Ef_bgp
module N = Ef_netsim
module T = Ef_traffic
open Helpers

let world = lazy (N.Topo_gen.generate N.Topo_gen.small_config)

let demand ?events ?(seed = 5) () =
  let w = Lazy.force world in
  T.Demand.create ?events ~prefix_weight:w.N.Topo_gen.prefix_weight
    ~origin_region:w.N.Topo_gen.origin_region
    ~total_peak_bps:w.N.Topo_gen.total_peak_bps ~seed ()

let a_prefix () = List.hd (Lazy.force world).N.Topo_gen.all_prefixes

let test_diurnal_range () =
  List.iter
    (fun region ->
      for h = 0 to 23 do
        let f = T.Demand.diurnal_factor region ~time_s:(h * 3600) in
        if f < 0.349 || f > 1.001 then Alcotest.failf "factor %f out of range" f
      done)
    N.Region.all

let test_diurnal_peak_at_nine_pm_local () =
  let region = N.Region.Europe in
  (* local 21:00 = utc 20:00 for our Europe offset (+1) *)
  let peak = T.Demand.diurnal_factor region ~time_s:(20 * 3600) in
  Helpers.check_float_eps 1e-6 "peak is 1.0" 1.0 peak;
  let trough = T.Demand.diurnal_factor region ~time_s:(8 * 3600) in
  Helpers.check_float_eps 1e-6 "trough is 0.35" 0.35 trough

let test_demand_deterministic () =
  let d1 = demand () and d2 = demand () in
  let p = a_prefix () in
  for t = 0 to 10 do
    Helpers.check_float "same rate"
      (T.Demand.rate_bps d1 p ~time_s:(t * 997))
      (T.Demand.rate_bps d2 p ~time_s:(t * 997))
  done

let test_demand_proportional_to_weight () =
  let w = Lazy.force world in
  let d = demand () in
  (* zero-weight prefix -> zero demand *)
  let unknown = prefix "1.2.3.0/24" in
  Helpers.check_float "unknown prefix" 0.0 (T.Demand.rate_bps d unknown ~time_s:0);
  (* total demand is within jitter of peak * diurnal mix *)
  let total = T.Demand.total_rate_bps d ~prefixes:w.N.Topo_gen.all_prefixes ~time_s:0 in
  Alcotest.(check bool) "positive" true (total > 0.0);
  Alcotest.(check bool) "within jitter of peak" true
    (total <= 1.1 *. w.N.Topo_gen.total_peak_bps)

let test_demand_flash_crowd () =
  let p = a_prefix () in
  let event =
    { T.Demand.event_prefix = p; start_s = 1000; duration_s = 500; multiplier = 3.0 }
  in
  let base = demand () in
  let boosted = demand ~events:[ event ] () in
  let inside = T.Demand.rate_bps boosted p ~time_s:1200 in
  let inside_base = T.Demand.rate_bps base p ~time_s:1200 in
  Helpers.check_float_eps 1e-6 "3x inside window" (3.0 *. inside_base) inside;
  Helpers.check_float "same before" (T.Demand.rate_bps base p ~time_s:999)
    (T.Demand.rate_bps boosted p ~time_s:999);
  Helpers.check_float "same after" (T.Demand.rate_bps base p ~time_s:1500)
    (T.Demand.rate_bps boosted p ~time_s:1500)

let test_demand_jitter_bounded () =
  let d = demand () in
  let w = Lazy.force world in
  let p = a_prefix () in
  let weight = w.N.Topo_gen.prefix_weight p in
  for block = 0 to 50 do
    let t = block * 300 in
    let rate = T.Demand.rate_bps d p ~time_s:t in
    let nominal =
      weight *. w.N.Topo_gen.total_peak_bps
      *. T.Demand.diurnal_factor (w.N.Topo_gen.origin_region p) ~time_s:t
    in
    let ratio = rate /. nominal in
    if ratio < 0.899 || ratio > 1.101 then Alcotest.failf "jitter %f" ratio
  done

(* --- Flow ------------------------------------------------------------- *)

let test_flow_conserves_bytes () =
  let rng = Ef_util.Rng.create 3 in
  let flows =
    T.Flow.generate rng ~prefix:(prefix "10.0.0.0/24") ~rate_bps:8e6
      ~interval_s:10.0 ~max_flows:50
  in
  let expect = int_of_float (8e6 *. 10.0 /. 8.0) in
  let got = T.Flow.total_bytes flows in
  (* rounding may lose up to one byte per flow *)
  Alcotest.(check bool) "bytes conserved" true
    (abs (got - expect) <= List.length flows + 1);
  Alcotest.(check bool) "capped" true (List.length flows <= 50)

let test_flow_clients_in_prefix () =
  let rng = Ef_util.Rng.create 4 in
  let p = prefix "10.1.2.0/24" in
  let flows = T.Flow.generate rng ~prefix:p ~rate_bps:1e6 ~interval_s:5.0 ~max_flows:20 in
  Alcotest.(check bool) "nonempty" true (flows <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool) "client inside" true (Bgp.Prefix.mem f.T.Flow.client p))
    flows

let test_flow_zero_rate () =
  let rng = Ef_util.Rng.create 5 in
  Alcotest.(check int) "no flows" 0
    (List.length
       (T.Flow.generate rng ~prefix:(prefix "10.0.0.0/24") ~rate_bps:0.0
          ~interval_s:30.0 ~max_flows:10))

(* --- Sflow ------------------------------------------------------------ *)

let test_sflow_estimate_unbiased () =
  let config = { T.Sflow.sampling_rate = 128; interval_s = 30.0 } in
  let rng = Ef_util.Rng.create 6 in
  let p = prefix "10.0.0.0/24" in
  let true_rate = 50e6 in
  let n = 300 in
  let total = ref 0.0 in
  for _ = 1 to n do
    let s = T.Sflow.sample_rate config rng ~prefix:p ~rate_bps:true_rate in
    total := !total +. T.Sflow.estimate_rate_bps config s
  done;
  let mean = !total /. float_of_int n in
  let err = Float.abs (mean -. true_rate) /. true_rate in
  if err > 0.05 then Alcotest.failf "estimator bias %f" err

let test_sflow_flow_level_vs_statistical () =
  (* the faithful flow-level pipeline and the fast path must agree on the
     expected sampled-packet count *)
  let config = { T.Sflow.sampling_rate = 64; interval_s = 10.0 } in
  let rng = Ef_util.Rng.create 7 in
  let p = prefix "10.0.0.0/24" in
  let rate = 100e6 in
  let n = 100 in
  let flow_hits = ref 0 and stat_hits = ref 0 in
  for _ = 1 to n do
    let flows = T.Flow.generate rng ~prefix:p ~rate_bps:rate ~interval_s:10.0 ~max_flows:500 in
    List.iter
      (fun (s : T.Sflow.sample) -> flow_hits := !flow_hits + s.T.Sflow.sampled_packets)
      (T.Sflow.sample_flows config rng flows);
    let s = T.Sflow.sample_rate config rng ~prefix:p ~rate_bps:rate in
    stat_hits := !stat_hits + s.T.Sflow.sampled_packets
  done;
  let ratio = float_of_int !flow_hits /. float_of_int (max 1 !stat_hits) in
  if ratio < 0.9 || ratio > 1.1 then Alcotest.failf "pipelines disagree: %f" ratio

let test_sflow_thin_prefix_can_vanish () =
  (* a prefix whose expected sample count is far below 1 will often
     produce zero samples — the visibility loss the EWMA must smooth *)
  let config = T.Sflow.default_config in
  let rng = Ef_util.Rng.create 8 in
  let p = prefix "10.0.0.0/24" in
  let zeros = ref 0 in
  for _ = 1 to 100 do
    let s = T.Sflow.sample_rate config rng ~prefix:p ~rate_bps:10_000.0 in
    if s.T.Sflow.sampled_packets = 0 then incr zeros
  done;
  Alcotest.(check bool) "mostly invisible" true (!zeros > 50)

(* --- Rate_est ---------------------------------------------------------- *)

let test_rate_est_tracks () =
  let config = { T.Sflow.sampling_rate = 1; interval_s = 1.0 } in
  let est = T.Rate_est.create config in
  let p = prefix "10.0.0.0/24" in
  (* the first interval seeds the estimate with its scaled sample *)
  T.Rate_est.observe est [ { T.Sflow.sample_prefix = p; sampled_packets = 125 } ];
  T.Rate_est.tick_absent est;
  Helpers.check_float "tracks exactly" (125.0 *. 8000.0) (T.Rate_est.estimate_bps est p)

let test_rate_est_decays_absent () =
  let config = { T.Sflow.sampling_rate = 1; interval_s = 1.0 } in
  let est = T.Rate_est.create config in
  let p = prefix "10.0.0.0/24" in
  T.Rate_est.observe est [ { T.Sflow.sample_prefix = p; sampled_packets = 100 } ];
  T.Rate_est.tick_absent est;
  let before = T.Rate_est.estimate_bps est p in
  (* two silent intervals leave 0.7^2 = 0.49 of it *)
  T.Rate_est.tick_absent est;
  T.Rate_est.tick_absent est;
  let after = T.Rate_est.estimate_bps est p in
  Alcotest.(check bool) "decayed" true (after < before /. 2.0)

let test_rate_est_drop_below () =
  let config = { T.Sflow.sampling_rate = 1; interval_s = 1.0 } in
  let est = T.Rate_est.create config in
  T.Rate_est.observe est
    [ { T.Sflow.sample_prefix = prefix "10.0.0.0/24"; sampled_packets = 1 } ];
  Alcotest.(check int) "tracked" 1 (T.Rate_est.tracked est);
  T.Rate_est.drop_below est 1e12;
  Alcotest.(check int) "dropped" 0 (T.Rate_est.tracked est)

let test_rate_est_snapshot_sorted () =
  let config = { T.Sflow.sampling_rate = 1; interval_s = 1.0 } in
  let est = T.Rate_est.create config in
  T.Rate_est.observe est
    [
      { T.Sflow.sample_prefix = prefix "10.0.0.0/24"; sampled_packets = 10 };
      { T.Sflow.sample_prefix = prefix "10.0.1.0/24"; sampled_packets = 99 };
      { T.Sflow.sample_prefix = prefix "10.0.2.0/24"; sampled_packets = 50 };
    ];
  let snap = T.Rate_est.snapshot est in
  Alcotest.(check int) "three" 3 (List.length snap);
  let rates = List.map snd snap in
  Alcotest.(check bool) "descending" true
    (rates = List.sort (fun a b -> compare b a) rates)

let test_rate_est_snapshot_tie_break () =
  (* equal rates order by prefix ascending — the same total order as
     Projection.compare_placement, so a snapshot is one canonical list
     regardless of hash-table iteration order *)
  let config = { T.Sflow.sampling_rate = 1; interval_s = 1.0 } in
  let est = T.Rate_est.create config in
  let ps = [ "10.0.2.0/24"; "10.0.0.0/24"; "10.0.1.0/24" ] in
  T.Rate_est.observe est
    (List.map
       (fun p -> { T.Sflow.sample_prefix = prefix p; sampled_packets = 50 })
       ps);
  let snap = T.Rate_est.snapshot est in
  Alcotest.(check (list string)) "ties broken by prefix ascending"
    [ "10.0.0.0/24"; "10.0.1.0/24"; "10.0.2.0/24" ]
    (List.map (fun (p, _) -> Format.asprintf "%a" Bgp.Prefix.pp p) snap)

let suite =
  [
    Alcotest.test_case "diurnal range" `Quick test_diurnal_range;
    Alcotest.test_case "diurnal peak 21:00 local" `Quick
      test_diurnal_peak_at_nine_pm_local;
    Alcotest.test_case "demand deterministic" `Quick test_demand_deterministic;
    Alcotest.test_case "demand weight proportional" `Quick
      test_demand_proportional_to_weight;
    Alcotest.test_case "demand flash crowd" `Quick test_demand_flash_crowd;
    Alcotest.test_case "demand jitter bounded" `Quick test_demand_jitter_bounded;
    Alcotest.test_case "flow conserves bytes" `Quick test_flow_conserves_bytes;
    Alcotest.test_case "flow clients in prefix" `Quick test_flow_clients_in_prefix;
    Alcotest.test_case "flow zero rate" `Quick test_flow_zero_rate;
    Alcotest.test_case "sflow estimator unbiased" `Quick test_sflow_estimate_unbiased;
    Alcotest.test_case "sflow flow-level agrees" `Quick
      test_sflow_flow_level_vs_statistical;
    Alcotest.test_case "sflow thin prefixes vanish" `Quick
      test_sflow_thin_prefix_can_vanish;
    Alcotest.test_case "rate_est tracks" `Quick test_rate_est_tracks;
    Alcotest.test_case "rate_est decays absent" `Quick test_rate_est_decays_absent;
    Alcotest.test_case "rate_est drop below" `Quick test_rate_est_drop_below;
    Alcotest.test_case "rate_est snapshot sorted" `Quick
      test_rate_est_snapshot_sorted;
    Alcotest.test_case "rate_est snapshot tie-break" `Quick
      test_rate_est_snapshot_tie_break;
  ]
