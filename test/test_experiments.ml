(* ef_sim: experiment-driver smoke tests (static experiments only — the
   dynamic ones simulate whole days and are exercised by the bench). *)

module E = Ef_sim.Experiments
module Table = Ef_stats.Table

let test_e1_shape () =
  let t = E.e1_peering () in
  (* 4 PoPs x 4 neighbor kinds *)
  Alcotest.(check int) "rows" 16 (Table.row_count t);
  let rendered = Table.render t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Helpers.string_contains ~needle rendered))
    [ "pop-a"; "pop-d"; "transit"; "private"; "route-server" ]

let test_e2_shape () =
  let t = E.e2_route_diversity () in
  Alcotest.(check int) "one row per pop" 4 (Table.row_count t);
  (* every cell ends in % and >=1 coverage is 100% everywhere *)
  let rendered = Table.render t in
  Alcotest.(check bool) "full >=1 coverage" true
    (Helpers.string_contains ~needle:"100.0%" rendered)

let test_e3_shape () =
  let t = E.e3_preference_mix () in
  Alcotest.(check int) "one row per pop" 4 (Table.row_count t)

let test_cache_stability () =
  (* repeated calls reuse cached worlds: identical output *)
  let a = Table.render (E.e3_preference_mix ()) in
  let b = Table.render (E.e3_preference_mix ()) in
  Alcotest.(check string) "deterministic" a b

let test_jobs_invariance () =
  (* jobs=1 and jobs=4 must produce the exact same table and the same
     default-registry counters and gauges; short day to keep the test
     quick *)
  let params cycle_s jobs =
    { E.default_params with E.cycle_s; duration_s = 2 * 3600; jobs }
  in
  let run jobs =
    E.clear_cache ();
    let reg = Ef_obs.Registry.default () in
    Ef_obs.Registry.reset reg;
    let table =
      Table.render (E.e4_bgp_only_overload ~params:(params 600 jobs) ())
    in
    let values =
      List.filter_map
        (fun (name, m) ->
          match m with
          | Ef_obs.Registry.Counter_m c -> Some (name, Ef_obs.Counter.value c)
          | Ef_obs.Registry.Gauge_m g -> Some (name, Ef_obs.Gauge.value g)
          | Ef_obs.Registry.Histogram_m _ | Ef_obs.Registry.Span_m _ -> None)
        (Ef_obs.Registry.metrics reg)
    in
    (table, values)
  in
  let seq, seq_values = run 1 in
  let par, par_values = run 4 in
  Alcotest.(check string) "e4 identical at jobs=1 and jobs=4" seq par;
  Alcotest.(check bool) "counters and gauges recorded" true (seq_values <> []);
  Alcotest.(check (list (pair string (float 0.0))))
    "default-registry counters and gauges identical" seq_values par_values

let suite =
  [
    Alcotest.test_case "e1 shape" `Quick test_e1_shape;
    Alcotest.test_case "e2 shape" `Quick test_e2_shape;
    Alcotest.test_case "e3 shape" `Quick test_e3_shape;
    Alcotest.test_case "cache stability" `Quick test_cache_stability;
    Alcotest.test_case "jobs invariance" `Slow test_jobs_invariance;
  ]
