(* Ef_health: SLO state machine, deterministic alerting, profiler +
   Chrome trace export, tracker integration *)

module O = Ef_obs
module H = Ef_health

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* a deterministic fake monotonic clock: each [tick] advances it *)
let with_fake_clock f =
  let now = ref 0L in
  O.Clock.set_now_ns (fun () -> !now);
  Fun.protect ~finally:O.Clock.reset (fun () ->
      f (fun ns -> now := Int64.add !now (Int64.of_int ns)))

(* --- Slo ---------------------------------------------------------------- *)

let clean = {
  H.Slo.in_duration_s = 0.1;
  in_degraded = false;
  in_skipped = false;
  in_stale = false;
  in_violations = 0;
  in_residual = 0;
}

let state = Alcotest.testable H.Slo.pp_state ( = )

let test_slo_healthy () =
  let slo = H.Slo.create () in
  for _ = 1 to 200 do
    Alcotest.check state "stays healthy" H.Slo.Healthy (H.Slo.observe slo clean)
  done;
  Alcotest.(check int) "cycles" 200 (H.Slo.cycles slo);
  Alcotest.(check int) "no overruns" 0 (H.Slo.overruns_total slo);
  Alcotest.(check (float 0.0)) "no burn" 0.0 (H.Slo.burn_rate slo)

(* one deadline overrun on the very first cycle is a 100% overrun window:
   burn 100x pins Broken immediately, then the machine recovers one rung
   per clean streak as the window dilutes — Degraded once burn < 10
   (cycle 10: (1/10)/0.01 rounds just below 10 in binary), Healthy once
   burn < 1 (cycle 101) *)
let test_slo_escalate_and_recover () =
  let slo = H.Slo.create () in
  Alcotest.check state "straight to broken" H.Slo.Broken
    (H.Slo.observe slo { clean with H.Slo.in_duration_s = 5.0 });
  let cycle = ref 1 in
  let first_seen target =
    let seen = ref None in
    while !seen = None && !cycle < 200 do
      incr cycle;
      if H.Slo.observe slo clean = target then seen := Some !cycle
    done;
    !seen
  in
  Alcotest.(check (option int)) "degraded at 10" (Some 10)
    (first_seen H.Slo.Degraded);
  Alcotest.(check (option int)) "healthy at 100" (Some 100)
    (first_seen H.Slo.Healthy);
  Alcotest.(check int) "one overrun total" 1 (H.Slo.overruns_total slo);
  Alcotest.(check (float 1e-9)) "worst duration kept" 5.0
    (H.Slo.worst_duration_s slo)

let test_slo_skip_counts_as_overrun () =
  let slo = H.Slo.create () in
  ignore (H.Slo.observe slo { clean with H.Slo.in_skipped = true });
  Alcotest.(check int) "skip = overrun" 1 (H.Slo.overruns_total slo);
  Alcotest.check state "skip breaks" H.Slo.Broken (H.Slo.state slo)

(* impairment without overrun (stale feed) degrades immediately but never
   burns the deadline budget; three in a row forces Broken *)
let test_slo_impaired_without_overrun () =
  let slo = H.Slo.create () in
  let stale = { clean with H.Slo.in_stale = true } in
  Alcotest.check state "degraded" H.Slo.Degraded (H.Slo.observe slo stale);
  Alcotest.check state "still degraded" H.Slo.Degraded (H.Slo.observe slo stale);
  Alcotest.check state "3 consecutive -> broken" H.Slo.Broken
    (H.Slo.observe slo stale);
  Alcotest.(check int) "no overruns" 0 (H.Slo.overruns_total slo);
  Alcotest.(check int) "impaired counted" 3 (H.Slo.impaired_total slo)

let test_slo_config_validated () =
  let bad f =
    match H.Slo.create ~config:(f H.Slo.default_config) () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "window > 0" true
    (bad (fun c -> { c with H.Slo.window = 0 }));
  Alcotest.(check bool) "target in (0,1)" true
    (bad (fun c -> { c with H.Slo.target = 1.0 }));
  (* a budget of zero or less counts every cycle as an overrun; NaN
     compares false, so it would count none *)
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "deadline %g rejected" d)
        true
        (bad (fun c -> { c with H.Slo.deadline_s = d })))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

(* --- Alert -------------------------------------------------------------- *)

let ctx ?(cycle = 1) ?(duration = 0.1) ?(violations = 0) ?(residual = 0)
    ?(degraded = false) ?(stale = false) ?(metric = fun _ -> None) () =
  {
    H.Alert.cx_cycle = cycle;
    cx_time_s = 30 * cycle;
    cx_duration_s = duration;
    cx_state = H.Slo.Healthy;
    cx_burn_rate = 0.0;
    cx_overrun_fraction = 0.0;
    cx_violations = violations;
    cx_residual = residual;
    cx_degraded = degraded;
    cx_stale = stale;
    cx_skipped = false;
    cx_metric = metric;
  }

let test_alert_edge_triggered () =
  let t =
    H.Alert.create
      [
        H.Alert.rule ~name:"viol" H.Alert.Page
          H.Alert.(Cmp (Gt, Violations, Const 0.0));
      ]
  in
  let fire n cx = Alcotest.(check int) n (List.length (H.Alert.step t cx)) in
  Alcotest.(check int) "quiet" 0
    (List.length (H.Alert.step t (ctx ~cycle:1 ())));
  Alcotest.(check int) "fires on edge" 1
    (List.length (H.Alert.step t (ctx ~cycle:2 ~violations:3 ())));
  Alcotest.(check int) "holds silently" 0
    (List.length (H.Alert.step t (ctx ~cycle:3 ~violations:1 ())));
  Alcotest.(check int) "re-arms on clear" 0
    (List.length (H.Alert.step t (ctx ~cycle:4 ())));
  Alcotest.(check int) "fires again" 1
    (List.length (H.Alert.step t (ctx ~cycle:5 ~violations:2 ())));
  ignore fire;
  Alcotest.(check int) "two firings recorded" 2
    (List.length (H.Alert.firings t))

let test_alert_for_last () =
  let t =
    H.Alert.create
      [
        H.Alert.rule ~name:"persistent" H.Alert.Warn
          H.Alert.(For_last (3, Cmp (Gt, Residual, Const 0.0)));
      ]
  in
  let step cycle residual =
    List.length (H.Alert.step t (ctx ~cycle ~residual ()))
  in
  Alcotest.(check int) "1st" 0 (step 1 1);
  Alcotest.(check int) "2nd" 0 (step 2 1);
  Alcotest.(check int) "3rd consecutive fires" 1 (step 3 1);
  Alcotest.(check int) "still holding" 0 (step 4 1);
  Alcotest.(check int) "broken streak" 0 (step 5 0);
  Alcotest.(check int) "restart 1" 0 (step 6 1);
  Alcotest.(check int) "restart 2" 0 (step 7 1);
  Alcotest.(check int) "restart 3 fires" 1 (step 8 1)

let test_alert_delta_metric () =
  let value = ref 0.0 in
  let metric = function "work.done" -> Some !value | _ -> None in
  let t =
    H.Alert.create
      [
        H.Alert.rule ~name:"stalled" H.Alert.Warn
          H.Alert.(Cmp (Le, Delta "work.done", Const 0.0));
      ]
  in
  (* first cycle: delta vs implicit 0 baseline *)
  value := 5.0;
  Alcotest.(check int) "progress" 0
    (List.length (H.Alert.step t (ctx ~cycle:1 ~metric ())));
  value := 9.0;
  Alcotest.(check int) "still progressing" 0
    (List.length (H.Alert.step t (ctx ~cycle:2 ~metric ())));
  Alcotest.(check int) "stall fires" 1
    (List.length (H.Alert.step t (ctx ~cycle:3 ~metric ())))

let test_alert_duplicate_names_rejected () =
  Alcotest.(check bool) "duplicate rejected" true
    (match
       H.Alert.create
         [
           H.Alert.rule ~name:"dup" H.Alert.Info H.Alert.Degraded_input;
           H.Alert.rule ~name:"dup" H.Alert.Warn H.Alert.Stale_input;
         ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* byte-determinism: the same observation sequence through two fresh rule
   engines yields byte-identical firing JSON — the property `efctl run
   --alerts-out` (and the CI health-smoke diff) relies on *)
let test_alert_firings_deterministic () =
  let run () =
    let t = H.Alert.create (H.Alert.default_rules ()) in
    for cycle = 1 to 40 do
      let violations = if cycle mod 7 = 0 then 2 else 0 in
      let degraded = cycle mod 11 = 0 in
      let residual = if cycle >= 20 && cycle <= 26 then 1 else 0 in
      ignore (H.Alert.step t (ctx ~cycle ~violations ~degraded ~residual ()))
    done;
    String.concat "\n"
      (List.map
         (fun f -> O.Json.to_string (H.Alert.firing_to_json f))
         (H.Alert.firings t))
  in
  let a = run () and b = run () in
  Alcotest.(check string) "byte-identical" a b;
  Alcotest.(check bool) "something fired" true (String.length a > 0);
  (* no wall-clock stamp may leak into the journal *)
  Alcotest.(check bool) "no timestamp field" false (contains a "\"ts\"")

(* --- Profiler ----------------------------------------------------------- *)

let test_profiler_noop () =
  let p = H.Profiler.noop in
  Alcotest.(check bool) "disabled" false (H.Profiler.enabled p);
  Alcotest.(check int) "span returns thunk result" 42
    (H.Profiler.span p ~name:"x" (fun () -> 42));
  H.Profiler.counter p ~name:"gc" [ ("minor", 1.0) ];
  Alcotest.(check int) "records nothing" 0 (H.Profiler.length p)

let test_profiler_records_and_attaches () =
  with_fake_clock @@ fun tick ->
  let p = H.Profiler.create () in
  let reg = O.Registry.create () in
  H.Profiler.attach p reg;
  (* a span timed through the registry lands in the profiler via the hook *)
  O.Span.time ~registry:reg "stage.collect" (fun () -> tick 1_000_000);
  ignore (H.Profiler.span p ~name:"manual" (fun () -> tick 2_000_000));
  ignore (H.Profiler.span ~lane:3 p ~name:"pool.task" (fun () -> tick 500_000));
  H.Profiler.counter p ~name:"gc" [ ("minor_words", 10.0) ];
  Alcotest.(check int) "hooked span" 1 (H.Profiler.span_count p ~name:"stage.collect");
  Alcotest.(check int) "manual span" 1 (H.Profiler.span_count p ~name:"manual");
  Alcotest.(check int) "counter" 1 (H.Profiler.counter_count p ~name:"gc");
  Alcotest.(check (float 1e-9)) "span seconds" 0.002
    (H.Profiler.span_seconds p ~name:"manual");
  Alcotest.(check (list (pair int (float 1e-9)))) "lane busy" [ (3, 0.0005) ]
    (H.Profiler.lane_busy_s p)

let test_profiler_capacity_bounds () =
  let p = H.Profiler.create ~capacity:8 () in
  for i = 1 to 20 do
    ignore (H.Profiler.span p ~name:(string_of_int i) (fun () -> ()))
  done;
  Alcotest.(check int) "buffer capped" 8 (H.Profiler.length p);
  Alcotest.(check int) "overflow counted" 12 (H.Profiler.dropped p)

let test_profiler_chrome_json () =
  let render () =
    with_fake_clock @@ fun tick ->
    let p = H.Profiler.create () in
    ignore (H.Profiler.span p ~name:"cycle" (fun () -> tick 3_000_000));
    H.Profiler.counter p ~name:"gc" [ ("minor_words", 7.0) ];
    H.Profiler.chrome_string p
  in
  let s = render () in
  Alcotest.(check string) "fake clock makes it reproducible" s (render ());
  (match O.Json.parse s with
  | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e
  | Ok json -> (
      match Option.bind (O.Json.member "traceEvents" json) O.Json.to_list_opt with
      | None -> Alcotest.fail "no traceEvents array"
      | Some events ->
          let phase e =
            Option.bind (O.Json.member "ph" e) O.Json.to_string_opt
          in
          let count ph =
            List.length (List.filter (fun e -> phase e = Some ph) events)
          in
          (* process_name + thread_name metadata, one X span, one C counter *)
          Alcotest.(check int) "metadata events" 2 (count "M");
          Alcotest.(check int) "span events" 1 (count "X");
          Alcotest.(check int) "counter events" 1 (count "C")));
  (* one event per line so line-oriented tooling can check it *)
  Alcotest.(check bool) "first line opens traceEvents" true
    (String.length s > 16 && String.sub s 0 16 = "{\"traceEvents\":[")

(* --- Tracker ------------------------------------------------------------ *)

let cycle_in ?(duration = 0.1) ?(violations = 0) ?(stale = false) time_s =
  {
    H.Tracker.time_s;
    duration_s = duration;
    degraded = false;
    skipped = false;
    stale;
    violations;
    residual = 0;
  }

let test_tracker_noop () =
  let t = H.Tracker.noop in
  Alcotest.(check bool) "disabled" false (H.Tracker.enabled t);
  Alcotest.(check (list pass)) "observe returns nothing" []
    (H.Tracker.observe_cycle t (cycle_in 0));
  Alcotest.check state "healthy" H.Slo.Healthy (H.Tracker.state t);
  Alcotest.(check (list pass)) "no prom families" []
    (H.Tracker.prom_families t)

let test_tracker_mirrors_registry () =
  let reg = O.Registry.create () in
  let t = H.Tracker.create ~obs:reg () in
  ignore (H.Tracker.observe_cycle t (cycle_in 0));
  let firings = H.Tracker.observe_cycle t (cycle_in ~violations:1 30) in
  Alcotest.(check bool) "guard_violation fired" true
    (List.exists (fun f -> f.H.Alert.f_rule = "guard_violation") firings);
  let counter name =
    O.Counter.value (O.Registry.counter reg name)
  in
  Alcotest.(check bool) "alert counter bumped" true
    (counter "health.alerts.fired" >= 1.0);
  Alcotest.(check (float 0.0)) "state gauge = degraded rank" 1.0
    (O.Gauge.value (O.Registry.gauge reg "health.state.rank"));
  Alcotest.(check bool) "transition recorded" true
    (counter "health.state.transitions" >= 1.0);
  Alcotest.(check int) "transitions list" 1
    (List.length (H.Tracker.transitions t));
  Alcotest.(check int) "cycles counted" 2 (H.Tracker.cycles t)

let test_tracker_prom_families () =
  let t = H.Tracker.create () in
  ignore (H.Tracker.observe_cycle t (cycle_in ~stale:true 0));
  let text = O.Prom.render (H.Tracker.prom_families t) in
  Alcotest.(check bool) "health_state family" true
    (contains text "health_state{state=\"degraded\"} 1.0");
  Alcotest.(check bool) "zero states present" true
    (contains text "health_state{state=\"broken\"} 0.0");
  Alcotest.(check bool) "fired rules labeled" true
    (contains text
       "alerts_fired_total{rule=\"stale_inputs\",severity=\"warn\"} 1.0");
  Alcotest.(check bool) "unfired rules still exported" true
    (contains text
       "alerts_fired_total{rule=\"health_broken\",severity=\"page\"} 0.0")

let test_tracker_deterministic_summary () =
  let run () =
    let t = H.Tracker.create () in
    for c = 1 to 30 do
      ignore
        (H.Tracker.observe_cycle t
           (cycle_in ~violations:(if c = 7 then 1 else 0)
              ~stale:(c >= 12 && c < 14)
              (30 * c)))
    done;
    O.Json.to_string (H.Tracker.summary_json t)
  in
  Alcotest.(check string) "summary byte-identical" (run ()) (run ())

(* the engine wiring: a short simulated run with a tracker produces the
   same metrics as without one, and the journal carries health events *)
let test_tracker_engine_integration () =
  let module S = Ef_sim in
  let run ?health () =
    let reg = O.Registry.create () in
    let config = S.Engine.make_config ~duration_s:1800 ~seed:3 () in
    let engine =
      S.Engine.create ~config ~obs:reg ?health Ef_netsim.Scenario.pop_a
    in
    S.Engine.run engine
  in
  let plain = run () in
  let tracker = H.Tracker.create () in
  let tracked = run ~health:tracker () in
  Alcotest.(check int) "same cycle count"
    (List.length (S.Metrics.rows plain))
    (List.length (S.Metrics.rows tracked));
  Alcotest.(check (float 1e-9)) "tracking never changes outcomes"
    (S.Metrics.mean_detour_fraction plain)
    (S.Metrics.mean_detour_fraction tracked);
  Alcotest.(check int) "tracker saw every cycle"
    (List.length (S.Metrics.rows tracked))
    (H.Tracker.cycles tracker)

let suite =
  [
    Alcotest.test_case "slo: healthy run stays healthy" `Quick test_slo_healthy;
    Alcotest.test_case "slo: escalate immediately, recover rung by rung"
      `Quick test_slo_escalate_and_recover;
    Alcotest.test_case "slo: skipped cycle counts as overrun" `Quick
      test_slo_skip_counts_as_overrun;
    Alcotest.test_case "slo: impairment without overrun" `Quick
      test_slo_impaired_without_overrun;
    Alcotest.test_case "slo: config validation" `Quick test_slo_config_validated;
    Alcotest.test_case "alert: edge-triggered with re-arm" `Quick
      test_alert_edge_triggered;
    Alcotest.test_case "alert: For_last streak" `Quick test_alert_for_last;
    Alcotest.test_case "alert: Delta metric operand" `Quick
      test_alert_delta_metric;
    Alcotest.test_case "alert: duplicate names rejected" `Quick
      test_alert_duplicate_names_rejected;
    Alcotest.test_case "alert: firings byte-deterministic" `Quick
      test_alert_firings_deterministic;
    Alcotest.test_case "profiler: noop records nothing" `Quick
      test_profiler_noop;
    Alcotest.test_case "profiler: records spans, counters, registry hook"
      `Quick test_profiler_records_and_attaches;
    Alcotest.test_case "profiler: capacity bounds the buffer" `Quick
      test_profiler_capacity_bounds;
    Alcotest.test_case "profiler: chrome trace is valid reproducible JSON"
      `Quick test_profiler_chrome_json;
    Alcotest.test_case "tracker: noop" `Quick test_tracker_noop;
    Alcotest.test_case "tracker: mirrors health into the registry" `Quick
      test_tracker_mirrors_registry;
    Alcotest.test_case "tracker: prom families" `Quick
      test_tracker_prom_families;
    Alcotest.test_case "tracker: summary byte-deterministic" `Quick
      test_tracker_deterministic_summary;
    Alcotest.test_case "tracker: engine integration is outcome-neutral"
      `Quick test_tracker_engine_integration;
  ]
