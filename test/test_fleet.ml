(* ef_sim: Fleet aggregation *)

module N = Ef_netsim
module S = Ef_sim

let quick_config =
  S.Engine.make_config ~cycle_s:300 ~duration_s:3600 ~start_s:(19 * 3600)
    ~seed:5 ()

let test_fleet_runs_all () =
  let fleet = S.Fleet.create ~config:quick_config [ N.Scenario.tiny; N.Scenario.pop_d ] in
  let results = S.Fleet.run fleet in
  Alcotest.(check (list string)) "both pops" [ "tiny"; "pop-d" ]
    (List.map fst results);
  List.iter
    (fun (_, m) -> Alcotest.(check int) "cycles" 12 (S.Metrics.cycle_count m))
    results

let test_fleet_summary () =
  let fleet = S.Fleet.create ~config:quick_config [ N.Scenario.tiny; N.Scenario.pop_d ] in
  let results = S.Fleet.run fleet in
  let s = S.Fleet.summarize results in
  Alcotest.(check int) "pops" 2 s.S.Fleet.pops;
  Alcotest.(check bool) "offered positive" true (s.S.Fleet.offered_peak_bps > 0.0);
  Alcotest.(check bool) "detour fraction sane" true
    (s.S.Fleet.mean_detour_fraction >= 0.0 && s.S.Fleet.mean_detour_fraction < 1.0);
  Alcotest.(check int) "no overloads with controller" 0 s.S.Fleet.overloaded_ifaces

let test_fleet_table_has_totals_row () =
  let fleet = S.Fleet.create ~config:quick_config [ N.Scenario.tiny ] in
  let table = S.Fleet.summary_table (S.Fleet.run fleet) in
  Alcotest.(check int) "pop + FLEET rows" 2 (Ef_stats.Table.row_count table)

(* --- determinism across --jobs: the PR's hard requirement --------------- *)

let det_scenarios =
  [ N.Scenario.tiny; N.Scenario.pop_d ] @ N.Scenario.generated_fleet ~n:2 ()

(* one full fleet pass: returns every observable surface as strings.
   Journal events carry wall-clock stamps, so [ev_time_ns] is zeroed
   before comparison (the PR3 golden-test convention). *)
let fleet_outputs ~jobs () =
  let obs = Ef_obs.Registry.create () in
  let sink, flush = Ef_obs.Registry.memory_sink () in
  Ef_obs.Registry.add_sink obs sink;
  let fleet = S.Fleet.create ~config:quick_config ~obs det_scenarios in
  let results = S.Fleet.run ~jobs fleet in
  let table = Ef_stats.Table.render (S.Fleet.summary_table results) in
  let rows =
    String.concat "\n"
      (List.map
         (fun (pop, m) ->
           Printf.sprintf "%s:%d:%d" pop (S.Metrics.cycle_count m)
             (List.length (S.Metrics.rows m)))
         results)
  in
  let journal =
    String.concat "\n"
      (List.map
         (fun ev ->
           Ef_obs.Json.to_string
             (Ef_obs.Registry.Event.to_json
                { ev with Ef_obs.Registry.Event.ev_time_ns = 0L }))
         (flush ()))
  in
  (table, rows, journal)

let test_fleet_jobs_invariant () =
  let t1, r1, j1 = fleet_outputs ~jobs:1 () in
  let t4, r4, j4 = fleet_outputs ~jobs:4 () in
  Alcotest.(check string) "summary table byte-identical" t1 t4;
  Alcotest.(check string) "metrics rows identical" r1 r4;
  Alcotest.(check bool) "journal non-empty" true (String.length j1 > 0);
  Alcotest.(check string) "journal byte-identical (t_ns stripped)" j1 j4

let test_fleet_parallel_merges_registries () =
  (* private fleet registry: the default one accumulates across tests *)
  let reg = Ef_obs.Registry.create () in
  let fleet = S.Fleet.create ~config:quick_config ~obs:reg det_scenarios in
  let results = S.Fleet.run ~jobs:3 fleet in
  Alcotest.(check int) "all pops ran" (List.length det_scenarios)
    (List.length results);
  Alcotest.(check (float 1e-9)) "pops_run counter merged"
    (float_of_int (List.length det_scenarios))
    (Ef_obs.Counter.value (Ef_obs.Registry.counter reg "fleet.pops_run"));
  match Ef_obs.Registry.find reg "fleet.pop_run" with
  | Some (Ef_obs.Registry.Span_m h) ->
      Alcotest.(check int) "one span sample per pop"
        (List.length det_scenarios) (Ef_obs.Histogram.count h)
  | _ -> Alcotest.fail "fleet.pop_run span missing after merge"

(* the wrap hook's one user: lane attribution. A parallel run records
   one pool.task span per PoP, tagged with the lane that ran it, and the
   lane busy-time gauges land in the fleet registry; a sequential run
   records neither *)
let lane_attribution ~jobs =
  let profiler = Ef_health.Profiler.create () in
  let reg = Ef_obs.Registry.create () in
  let scenarios = [ N.Scenario.tiny; N.Scenario.pop_d ] in
  let fleet =
    S.Fleet.create ~config:quick_config ~obs:reg ~profiler scenarios
  in
  ignore (S.Fleet.run ~jobs fleet);
  let lane_gauges =
    List.filter_map
      (fun (name, _) ->
        if String.starts_with ~prefix:"pool.lane" name then Some name else None)
      (Ef_obs.Registry.metrics reg)
  in
  ( List.length scenarios,
    Ef_health.Profiler.span_count profiler ~name:"pool.task",
    List.map fst (Ef_health.Profiler.lane_busy_s profiler),
    lane_gauges )

let test_fleet_lane_attribution () =
  let pops, tasks, lanes, gauges = lane_attribution ~jobs:2 in
  Alcotest.(check int) "one pool.task span per pop" pops tasks;
  Alcotest.(check bool) "some lane busy" true (lanes <> []);
  List.iter
    (fun lane ->
      Alcotest.(check bool)
        (Printf.sprintf "lane %d in {0, 1}" lane)
        true
        (lane = 0 || lane = 1))
    lanes;
  Alcotest.(check (list string))
    "one busy gauge per lane"
    (List.map (Printf.sprintf "pool.lane%d.busy_s") lanes)
    (List.sort compare gauges);
  let _, tasks, lanes, gauges = lane_attribution ~jobs:1 in
  Alcotest.(check int) "jobs=1: no pool.task span" 0 tasks;
  Alcotest.(check (list int)) "jobs=1: no lane busy" [] lanes;
  Alcotest.(check (list string)) "jobs=1: no lane gauge" [] gauges

let suite =
  [
    Alcotest.test_case "fleet runs all" `Slow test_fleet_runs_all;
    Alcotest.test_case "fleet summary" `Slow test_fleet_summary;
    Alcotest.test_case "fleet table" `Slow test_fleet_table_has_totals_row;
    Alcotest.test_case "fleet jobs-invariant outputs" `Slow
      test_fleet_jobs_invariant;
    Alcotest.test_case "fleet parallel registry merge" `Slow
      test_fleet_parallel_merges_registries;
    Alcotest.test_case "fleet lane attribution" `Slow
      test_fleet_lane_attribution;
  ]
