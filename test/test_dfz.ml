(* ef_netsim.Dfz + ef_sim.Dfz_run: the internet-scale world generator
   and its end-to-end driver, at smoke scale. The full-table run lives
   in the bench (e13); here the same machinery is pinned small:
   generator determinism (replayability is what makes the driver's
   differential verification meaningful), demand shape, the lockstep
   verify mode itself, the run handles, and the MRT-seeded path — which
   runs through the same loop, verify and faults included. *)

module Bgp = Ef_bgp
module N = Ef_netsim
module D = Ef_sim.Dfz_run

let small n = N.Dfz.config ~n_prefixes:n ()

(* --- generator determinism -------------------------------------------- *)

let test_dfz_replay_identical () =
  let a = N.Dfz.create (small 2_000) and b = N.Dfz.create (small 2_000) in
  Alcotest.(check bool) "initial rates equal" true
    (N.Dfz.current_rates a = N.Dfz.current_rates b);
  for cycle = 1 to 5 do
    let ea = N.Dfz.churn a ~cycle and eb = N.Dfz.churn b ~cycle in
    Alcotest.(check bool)
      (Printf.sprintf "cycle %d churn equal" cycle)
      true
      (ea.N.Dfz.rate_updates = eb.N.Dfz.rate_updates
      && ea.N.Dfz.routes_changed = eb.N.Dfz.routes_changed)
  done;
  Alcotest.(check bool) "post-churn rates equal" true
    (N.Dfz.current_rates a = N.Dfz.current_rates b);
  (* routes are a pure function of (config, epoch) *)
  List.iter
    (fun (p, _) ->
      Alcotest.(check bool) "routes equal" true
        (N.Dfz.routes a p = N.Dfz.routes b p))
    (N.Dfz.current_rates a)

let test_dfz_seed_changes_world () =
  let a = N.Dfz.create (small 2_000) in
  let b = N.Dfz.create { (small 2_000) with N.Dfz.seed = 99 } in
  Alcotest.(check bool) "different seeds differ" false
    (N.Dfz.current_rates a = N.Dfz.current_rates b)

(* --- demand shape ------------------------------------------------------ *)

let test_dfz_demand_shape () =
  let cfg = small 5_000 in
  let t = N.Dfz.create cfg in
  let rates = N.Dfz.current_rates t in
  Alcotest.(check int) "every prefix rated" cfg.N.Dfz.n_prefixes
    (List.length rates);
  let total = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 rates in
  Alcotest.(check bool) "mass conservation" true
    (Float.abs (total -. cfg.N.Dfz.total_bps)
    < 1e-6 *. cfg.N.Dfz.total_bps);
  Alcotest.(check bool) "all rates positive" true
    (List.for_all (fun (_, r) -> r > 0.0) rates);
  (* Zipf skew: the heaviest prefix dwarfs the median one *)
  let sorted =
    List.sort (fun (_, a) (_, b) -> Float.compare b a) rates |> Array.of_list
  in
  let _, top = sorted.(0) and _, median = sorted.(Array.length sorted / 2) in
  Alcotest.(check bool) "zipf head dominance" true (top > 100.0 *. median)

let test_dfz_churn_bounded () =
  let cfg = small 5_000 in
  let t = N.Dfz.create cfg in
  for cycle = 1 to 5 do
    let e = N.Dfz.churn t ~cycle in
    let touched =
      List.length e.N.Dfz.rate_updates + List.length e.N.Dfz.routes_changed
    in
    (* ~churn_fraction of the table, with generous slack for the hashed
       per-prefix draws *)
    Alcotest.(check bool)
      (Printf.sprintf "cycle %d churn bounded" cycle)
      true
      (touched > 0
      && float_of_int touched
         < 4.0 *. cfg.N.Dfz.churn_fraction *. float_of_int cfg.N.Dfz.n_prefixes
      )
  done

(* --- the driver's differential verify mode ----------------------------- *)

let test_driver_verified_identical () =
  let report =
    D.run
      ~obs:(Ef_obs.Registry.create ())
      ~config:(D.config ~cycles:8 ~verify:true ())
      (small 2_000)
  in
  (* a handful of prefixes may be withdrawn by churn at the end *)
  Alcotest.(check bool) "prefixes" true
    (report.D.prefix_count > 1_900 && report.D.prefix_count <= 2_000);
  Alcotest.(check int) "cycles" 8 report.D.cycles_run;
  Alcotest.(check int) "verified every cycle" 8 report.D.verified_cycles;
  Alcotest.(check (list string)) "no mismatches" [] report.D.mismatches;
  Alcotest.(check int) "warm path engaged every patched cycle" 7
    report.D.incremental_hits;
  Alcotest.(check bool) "churn flowed" true (report.D.dirty_total > 0);
  Alcotest.(check bool) "percentiles ordered" true
    (D.p50_s report <= D.p99_s report && D.p99_s report <= D.max_s report)

(* the tentpole pin at dfz scale: under the canned dfz-flap plan the
   snapshot chain carries interface removals, re-additions and capacity
   derates — the warm path must hold on every patched cycle (no cold
   fallback) and stay byte-identical to the cold reference pipeline *)
let test_driver_flap_verified_identical () =
  let faults =
    match N.Scenario.find_fault_plan "dfz-flap" with
    | Some p -> p
    | None -> Alcotest.fail "canned plan dfz-flap missing"
  in
  let report =
    D.run
      ~obs:(Ef_obs.Registry.create ())
      ~config:(D.config ~cycles:8 ~cycle_s:300 ~verify:true ~faults ())
      (small 2_000)
  in
  Alcotest.(check int) "verified every cycle" 8 report.D.verified_cycles;
  Alcotest.(check (list string)) "no mismatches" [] report.D.mismatches;
  Alcotest.(check int) "warm path survived the interface churn" 7
    report.D.incremental_hits;
  Alcotest.(check bool) "interface churn actually happened" true
    (report.D.iface_event_cycles <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "iface event cycle %d in range" c)
        true
        (c >= 1 && c < 8))
    report.D.iface_event_cycles

(* the recorder is a run argument: the incremental controller commits one
   trace cycle per controller cycle, and the ring keeps the newest
   [capacity] of them *)
let test_driver_trace_one_cycle_each () =
  let retained ~capacity =
    let trace = Ef_trace.Recorder.create ~capacity () in
    ignore
      (D.run ~obs:(Ef_obs.Registry.create ()) ~trace
         ~config:(D.config ~cycles:6 ())
         (small 1_000)
        : D.report);
    List.map
      (fun c -> c.Ef_trace.Recorder.cy_index)
      (Ef_trace.Recorder.cycles trace)
  in
  Alcotest.(check (list int)) "one per cycle" [ 1; 2; 3; 4; 5; 6 ]
    (retained ~capacity:16);
  Alcotest.(check (list int)) "ring keeps the newest" [ 3; 4; 5; 6 ]
    (retained ~capacity:4)

(* verify's cold twin reports into a throwaway registry: with a private
   [obs] the process-wide default must not move, and [obs] itself sees
   the incremental side's cycles only *)
let test_driver_verify_reports_nowhere () =
  let default_cycles () =
    Ef_obs.Counter.value
      (Ef_obs.Registry.counter (Ef_obs.Registry.default ()) "controller.cycles")
  in
  let before = default_cycles () in
  let obs = Ef_obs.Registry.create () in
  let report =
    D.run ~obs ~config:(D.config ~cycles:4 ~verify:true ()) (small 1_000)
  in
  Alcotest.(check int) "verified" 4 report.D.verified_cycles;
  Alcotest.(check (float 0.0)) "default registry untouched" before
    (default_cycles ());
  Alcotest.(check (float 0.0)) "obs counts the incremental side only" 4.0
    (Ef_obs.Counter.value (Ef_obs.Registry.counter obs "controller.cycles"))

(* duplicated prefixes in the table build: later entries win and a late
   non-positive entry unrates, exactly as patch applies rate updates — in
   the count, the total, the rate order, rate_of and the projection *)
let test_assemble_duplicates () =
  let module C = Ef_collector in
  let module P = Edge_fabric.Projection in
  let gen = N.Dfz.create (small 6_000) in
  let base = N.Dfz.current_rates gen in
  let again =
    List.filteri (fun i _ -> i mod 3 = 0) base
    |> List.map (fun (p, r) -> (p, (r *. 1.5) +. 1.0))
  in
  let gone =
    List.filteri (fun i _ -> i mod 7 = 0) base |> List.map (fun (p, _) -> (p, 0.0))
  in
  let table = base @ again @ gone in
  let model = Hashtbl.create 8192 in
  List.iter
    (fun (p, r) ->
      if r > 0.0 then Hashtbl.replace model p r else Hashtbl.remove model p)
    table;
  let expected =
    Hashtbl.fold (fun p r acc -> (p, r) :: acc) model []
    |> List.sort (fun (pa, ra) (pb, rb) ->
           let c = Float.compare rb ra in
           if c <> 0 then c else Bgp.Prefix.compare pa pb)
  in
  let snap =
    C.Snapshot.assemble ~obs:(Ef_obs.Registry.create ())
      ~routes:(N.Dfz.routes gen) ~iface_of_peer:(N.Dfz.iface_of_peer gen)
      ~ifaces:(N.Dfz.ifaces gen) ~prefix_rates:table ~time_s:0 ()
  in
  Alcotest.(check int) "count" (List.length expected)
    (C.Snapshot.prefix_count snap);
  Alcotest.(check int64) "total millibps"
    (List.fold_left
       (fun acc (_, r) -> Int64.add acc (Ef_util.Units.to_millibps r))
       0L expected)
    (C.Snapshot.total_rate_millibps snap);
  Alcotest.(check bool) "prefix_rates" true
    (C.Snapshot.prefix_rates snap = expected);
  List.iter
    (fun (p, r) ->
      if C.Snapshot.rate_of snap p <> r then
        Alcotest.failf "rate_of %s" (Bgp.Prefix.to_string p))
    expected;
  let proj = P.project snap in
  let loads =
    List.map
      (fun i -> P.load_millibps proj ~iface_id:(N.Iface.id i))
      (C.Snapshot.ifaces snap)
  in
  Alcotest.(check int64) "loads + unroutable = total"
    (C.Snapshot.total_rate_millibps snap)
    (List.fold_left Int64.add (P.unroutable_millibps proj) loads);
  List.iter
    (fun (pl : P.placement) ->
      if Hashtbl.find_opt model pl.P.placed_prefix <> Some pl.P.rate_bps then
        Alcotest.failf "placed rate of %s"
          (Bgp.Prefix.to_string pl.P.placed_prefix))
    (P.placements proj)

(* satellite pin: the headline percentiles are steady-state — cycle 0's
   cold build is excluded, reported separately as cold_s *)
let test_percentiles_exclude_cold () =
  let report cycle_seconds =
    {
      D.prefix_count = 0;
      cycles_run = Array.length cycle_seconds;
      incremental_hits = 0;
      dirty_total = 0;
      iface_event_cycles = [];
      cycle_seconds;
      verified_cycles = 0;
      mismatches = [];
    }
  in
  let r = report [| 10.0; 0.2; 0.1; 0.3 |] in
  Alcotest.(check (float 0.0)) "cold_s is cycle 0" 10.0 (D.cold_s r);
  Alcotest.(check (float 0.0)) "p99 excludes cold" 0.3 (D.p99_s r);
  Alcotest.(check (float 0.0)) "max excludes cold" 0.3 (D.max_s r);
  Alcotest.(check (float 1e-9)) "mean excludes cold" 0.2 (D.mean_s r);
  (* a single-cycle run has no steady state: fall back to the full
     (one-cycle) distribution rather than reporting zeros *)
  let one = report [| 5.0 |] in
  Alcotest.(check (float 0.0)) "one-cycle cold" 5.0 (D.cold_s one);
  Alcotest.(check (float 0.0)) "one-cycle p99 falls back" 5.0 (D.p99_s one)

let test_report_json_shape () =
  let report =
    D.run
      ~obs:(Ef_obs.Registry.create ())
      ~config:(D.config ~cycles:3 ())
      (small 1_000)
  in
  let json = D.report_to_json report in
  let module J = Ef_obs.Json in
  Alcotest.(check bool) "prefix_count" true
    (match Option.bind (J.member "prefix_count" json) J.to_int_opt with
    | Some n -> n > 900 && n <= 1_000
    | None -> false);
  Alcotest.(check (option int)) "cycles_run" (Some 3)
    (Option.bind (J.member "cycles_run" json) J.to_int_opt);
  Alcotest.(check bool) "cold_s present" true (J.member "cold_s" json <> None);
  Alcotest.(check bool) "round-trips through the parser" true
    (match J.parse (J.to_string json) with Ok _ -> true | Error _ -> false)

(* --- the MRT-seeded path ----------------------------------------------- *)

let mrt_of_small_world () =
  let w = Gen.world 11 in
  let rib = N.Pop.rib w.N.Topo_gen.pop in
  Bgp.Mrt.of_rib ~timestamp:1700000000
    ~collector_id:(Bgp.Ipv4.of_string "192.0.2.1")
    rib

let test_run_mrt_smoke () =
  let mrt = mrt_of_small_world () in
  match
    D.run_mrt
      ~obs:(Ef_obs.Registry.create ())
      ~config:(D.config ~cycles:6 ())
      ~seed:3 mrt
  with
  | Error e -> Alcotest.failf "run_mrt: %a" Bgp.Mrt.pp_error e
  | Ok report ->
      Alcotest.(check bool) "prefixes from the dump" true
        (report.D.prefix_count > 0);
      Alcotest.(check int) "cycles" 6 report.D.cycles_run;
      Alcotest.(check int) "incremental after the first" 5
        report.D.incremental_hits

let test_run_mrt_deterministic () =
  let mrt = mrt_of_small_world () in
  let go () =
    match
      D.run_mrt
        ~obs:(Ef_obs.Registry.create ())
        ~config:(D.config ~cycles:4 ())
        ~seed:5 mrt
    with
    | Ok r -> (r.D.prefix_count, r.D.dirty_total, r.D.incremental_hits)
    | Error e -> Alcotest.failf "run_mrt: %a" Bgp.Mrt.pp_error e
  in
  Alcotest.(check bool) "same dump, same seed, same run" true (go () = go ())

(* one loop for both world kinds: an MRT-seeded run replays its cold
   twin and honours a fault plan, here one that flaps and derates two of
   the dump's peer interfaces *)
let test_run_mrt_verified_under_faults () =
  let mrt = mrt_of_small_world () in
  let flap_id, derate_id =
    match Bgp.Mrt.to_rib mrt with
    | Ok rib -> (
        match Bgp.Rib.peer_ids rib with
        | a :: b :: _ -> (a, b)
        | _ -> Alcotest.fail "dump has fewer than two peers")
    | Error e -> Alcotest.failf "to_rib: %a" Bgp.Mrt.pp_error e
  in
  let faults =
    Ef_fault.Plan.make ~seed:3
      [
        Ef_fault.Plan.Link_flap
          {
            iface_id = flap_id;
            from_s = 300;
            until_s = 2400;
            period_s = 600;
            down_s = 300;
          };
        Ef_fault.Plan.Capacity_degradation
          { iface_id = derate_id; from_s = 600; until_s = 1800; factor = 0.6 };
      ]
  in
  match
    D.run_mrt
      ~obs:(Ef_obs.Registry.create ())
      ~config:(D.config ~cycles:8 ~cycle_s:300 ~verify:true ~faults ())
      ~seed:3 mrt
  with
  | Error e -> Alcotest.failf "run_mrt: %a" Bgp.Mrt.pp_error e
  | Ok report ->
      Alcotest.(check int) "verified every cycle" report.D.cycles_run
        report.D.verified_cycles;
      Alcotest.(check (list string)) "no mismatches" [] report.D.mismatches;
      Alcotest.(check bool) "the plan hit the dump's interfaces" true
        (report.D.iface_event_cycles <> [])

let test_run_mrt_rejects_empty () =
  let mrt = mrt_of_small_world () in
  let empty = { mrt with Bgp.Mrt.records = [] } in
  match D.run_mrt ~obs:(Ef_obs.Registry.create ()) empty with
  | Error (Bgp.Mrt.Malformed _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Bgp.Mrt.pp_error e
  | Ok _ -> Alcotest.fail "empty dump accepted"

let suite =
  [
    Alcotest.test_case "generator replays identically" `Quick
      test_dfz_replay_identical;
    Alcotest.test_case "seed changes the world" `Quick
      test_dfz_seed_changes_world;
    Alcotest.test_case "demand: mass, positivity, zipf skew" `Quick
      test_dfz_demand_shape;
    Alcotest.test_case "churn volume bounded" `Quick test_dfz_churn_bounded;
    Alcotest.test_case "driver verify: incremental = cold" `Quick
      test_driver_verified_identical;
    Alcotest.test_case "driver verify: flap cycles stay warm and identical"
      `Quick test_driver_flap_verified_identical;
    Alcotest.test_case "driver trace: one committed cycle per cycle" `Quick
      test_driver_trace_one_cycle_each;
    Alcotest.test_case "driver verify: reference reports nowhere" `Quick
      test_driver_verify_reports_nowhere;
    Alcotest.test_case "assemble duplicates: last entry wins" `Quick
      test_assemble_duplicates;
    Alcotest.test_case "percentiles exclude the cold cycle" `Quick
      test_percentiles_exclude_cold;
    Alcotest.test_case "report json shape" `Quick test_report_json_shape;
    Alcotest.test_case "run_mrt smoke" `Quick test_run_mrt_smoke;
    Alcotest.test_case "run_mrt deterministic" `Quick
      test_run_mrt_deterministic;
    Alcotest.test_case "run_mrt verified under a fault plan" `Quick
      test_run_mrt_verified_under_faults;
    Alcotest.test_case "run_mrt rejects dump with no prefixes" `Quick
      test_run_mrt_rejects_empty;
  ]
