(* Ef_trace: the decision-provenance recorder, explain, the OpenMetrics
   export, and the serialization goldens.

   The golden files pin two external schemas:
   - test/golden/trace.json — the Recorder.to_json ring for a fixed
     seed/scenario engine run (byte-identical across runs is the trace
     layer's determinism contract);
   - test/golden/journal.json — the engine's event-journal lines for the
     same run, with the monotonic [t_ns] stamp stripped (the only
     non-deterministic field).

   Regenerate after an intentional schema change with
     GOLDEN_UPDATE=1 dune exec test/main.exe -- test provenance          *)

module Bgp = Ef_bgp
module Ef = Edge_fabric
module S = Ef_sim
module O = Ef_obs
module R = Ef_trace.Recorder
open Helpers

(* --- golden helpers (JSON flavor of test_golden's .hex machinery) ------ *)

let golden_dir =
  lazy
    (List.find_opt
       (fun d -> Sys.file_exists d && Sys.is_directory d)
       [ "golden"; "test/golden" ])

let golden_path name =
  match Lazy.force golden_dir with
  | Some d -> Filename.concat d (name ^ ".json")
  | None -> Alcotest.fail "no golden directory found (golden/ or test/golden/)"

let regenerate_hint = "GOLDEN_UPDATE=1 dune exec test/main.exe -- test provenance"

let check_golden name actual =
  if Sys.getenv_opt "GOLDEN_UPDATE" = Some "1" then begin
    let oc = open_out_bin (golden_path name) in
    output_string oc actual;
    close_out oc
  end
  else begin
    let path = golden_path name in
    if not (Sys.file_exists path) then
      Alcotest.failf "missing golden file %s — create it with:\n  %s" path
        regenerate_hint;
    let ic = open_in_bin path in
    let expected = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if not (String.equal expected actual) then
      Alcotest.failf
        "%s differs from %s (%d vs %d bytes).\n\
         If this schema change is intentional, regenerate with:\n\
        \  %s"
        name path (String.length expected) (String.length actual)
        regenerate_hint
  end

(* --- recorder basics ---------------------------------------------------- *)

let attempt ?(p = "10.1.0.0/16") () =
  {
    R.at_prefix = prefix p;
    at_from_iface = 0;
    at_rate_bps = 1e9;
    at_candidates = [];
    at_outcome = R.No_target;
  }

let test_noop_inert () =
  Alcotest.(check bool) "disabled" false (R.enabled R.noop);
  R.begin_cycle R.noop ~index:1 ~time_s:0;
  R.record_attempt R.noop (attempt ());
  R.set_degraded R.noop "nope";
  R.end_cycle R.noop;
  Alcotest.(check int) "no cycles" 0 (List.length (R.cycles R.noop));
  Alcotest.(check bool) "no latest" true (R.latest R.noop = None)

let test_ring_bound () =
  let t = R.create ~capacity:3 () in
  Alcotest.(check int) "capacity" 3 (R.capacity t);
  for i = 1 to 5 do
    R.begin_cycle t ~index:i ~time_s:(i * 60);
    R.end_cycle t
  done;
  let idx = List.map (fun c -> c.R.cy_index) (R.cycles t) in
  Alcotest.(check (list int)) "last 3, oldest first" [ 3; 4; 5 ] idx;
  Alcotest.(check bool) "evicted" true (R.find_cycle t ~index:1 = None);
  Alcotest.(check bool) "retained" true (R.find_cycle t ~index:5 <> None)

let test_begin_commits_open_cycle () =
  let t = R.create () in
  R.begin_cycle t ~index:1 ~time_s:0;
  R.record_attempt t (attempt ());
  (* no end_cycle: the next begin must commit cycle 1 *)
  R.begin_cycle t ~index:2 ~time_s:60;
  R.end_cycle t;
  let idx = List.map (fun c -> c.R.cy_index) (R.cycles t) in
  Alcotest.(check (list int)) "both committed" [ 1; 2 ] idx;
  match R.find_cycle t ~index:1 with
  | Some c -> Alcotest.(check int) "attempt kept" 1 (List.length c.R.cy_attempts)
  | None -> Alcotest.fail "cycle 1 lost"

(* --- the full causal chain through the controller ----------------------- *)

(* Test_core's PoP with the private 10G interface pushed to 14G: the
   allocator must detour, so every pipeline stage leaves a record. *)
let overloaded_snapshot () =
  let fx = Test_core.fixture () in
  Test_core.snapshot fx
    [ (Test_core.pfx_a, 8e9); (Test_core.pfx_b, 6e9); (Test_core.pfx_c, 2e9) ]

let test_controller_causal_chain () =
  let snap = overloaded_snapshot () in
  let tr = R.create () in
  let ctrl = Ef.Controller.create ~trace:tr ~name:"test" () in
  ignore (Ef.Controller.cycle ctrl snap);
  let c =
    match R.latest tr with Some c -> c | None -> Alcotest.fail "no cycle"
  in
  Alcotest.(check int) "cycle index" 1 c.R.cy_index;
  Alcotest.(check int) "iface rows" 3 (List.length c.R.cy_ifaces);
  Alcotest.(check bool) "attempts recorded" true (c.R.cy_attempts <> []);
  let moved =
    List.filter
      (fun a -> match a.R.at_outcome with R.Moved _ -> true | _ -> false)
      c.R.cy_attempts
  in
  Alcotest.(check bool) "something moved" true (moved <> []);
  (* every successful move examined candidates and one was Chosen *)
  List.iter
    (fun a ->
      Alcotest.(check bool) "candidates examined" true (a.R.at_candidates <> []);
      Alcotest.(check bool) "one chosen" true
        (List.exists (fun cd -> cd.R.cand_verdict = R.Chosen) a.R.at_candidates))
    moved;
  Alcotest.(check bool) "enforced recorded" true (c.R.cy_enforced <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "override community applied" true
        (List.mem "65000:911" e.R.en_communities);
      Alcotest.(check bool) "local pref set" true (e.R.en_local_pref > 0))
    c.R.cy_enforced;
  Alcotest.(check bool) "hysteresis installed" true
    (List.exists
       (fun h -> h.R.hy_disposition = R.Installed)
       c.R.cy_hys);
  Alcotest.(check bool) "overloaded prefixes touched" true
    (R.touched c Test_core.pfx_a || R.touched c Test_core.pfx_b);
  (* a second cycle on the same snapshot keeps the override *)
  ignore (Ef.Controller.cycle ctrl snap);
  let c2 =
    match R.latest tr with Some c -> c | None -> Alcotest.fail "no cycle 2"
  in
  Alcotest.(check int) "second cycle" 2 c2.R.cy_index;
  Alcotest.(check bool) "kept on second cycle" true
    (List.exists
       (fun h -> match h.R.hy_disposition with R.Kept _ -> true | _ -> false)
       c2.R.cy_hys)

let test_explain_chain () =
  let snap = overloaded_snapshot () in
  let tr = R.create () in
  let ctrl = Ef.Controller.create ~trace:tr ~name:"test" () in
  ignore (Ef.Controller.cycle ctrl snap);
  let c =
    match R.latest tr with Some c -> c | None -> Alcotest.fail "no cycle"
  in
  let p = (List.hd c.R.cy_attempts).R.at_prefix in
  (match Ef_trace.Explain.explain tr p with
  | Ok text ->
      Alcotest.(check bool) "names the prefix" true
        (string_contains ~needle:(Bgp.Prefix.to_string p) text);
      Alcotest.(check bool) "shows the allocator stage" true
        (string_contains ~needle:"allocator" text)
  | Error e -> Alcotest.failf "explain failed: %s" e);
  match Ef_trace.Explain.explain tr (prefix "192.0.2.0/24") with
  | Ok _ -> Alcotest.fail "untouched prefix should not explain"
  | Error _ -> ()

let test_guard_budget_drops () =
  let snap = overloaded_snapshot () in
  let alloc = Ef.Allocator.run ~config:Ef.Config.default snap in
  Alcotest.(check bool) "allocator proposes overrides" true
    (alloc.Ef.Allocator.overrides <> []);
  let tr = R.create () in
  R.begin_cycle tr ~index:1 ~time_s:0;
  let gcfg =
    {
      Ef.Guard.max_detour_fraction = None;
      max_overrides = Some 0;
    }
  in
  let kept, dropped =
    Ef.Guard.clamp ~trace:tr gcfg snap alloc.Ef.Allocator.overrides
  in
  R.end_cycle tr;
  Alcotest.(check int) "budget 0 keeps nothing" 0 (List.length kept);
  let c =
    match R.latest tr with Some c -> c | None -> Alcotest.fail "no cycle"
  in
  Alcotest.(check int) "every drop recorded" (List.length dropped)
    (List.length c.R.cy_guard);
  List.iter
    (fun g -> Alcotest.(check bool) "budget reason" true (g.R.gd_reason = R.Budget))
    c.R.cy_guard

(* --- determinism + goldens ---------------------------------------------- *)

let traced_run () =
  let tr = R.create () in
  let reg = O.Registry.create () in
  let sink, events = O.Registry.memory_sink () in
  O.Registry.add_sink reg sink;
  let config =
    S.Engine.make_config ~cycle_s:60 ~duration_s:300 ~start_s:(18 * 3600)
      ~controller_enabled:true ~use_sampling:true ~seed:3 ()
  in
  let e = S.Engine.create ~config ~obs:reg ~trace:tr Ef_netsim.Scenario.tiny in
  ignore (S.Engine.run e);
  (tr, events ())

let trace_json tr = O.Json.to_string (R.to_json tr) ^ "\n"

(* journal lines with the monotonic [t_ns] stamp stripped — everything
   else in an event is a function of seed + scenario *)
let journal_lines events =
  String.concat ""
    (List.map
       (fun e ->
         O.Json.to_string
           (O.Json.Obj
              (("event", O.Json.String e.O.Registry.Event.ev_name)
              :: e.O.Registry.Event.ev_fields))
         ^ "\n")
       events)

let test_trace_deterministic () =
  let tr1, _ = traced_run () and tr2, _ = traced_run () in
  let j1 = trace_json tr1 and j2 = trace_json tr2 in
  Alcotest.(check bool) "non-trivial" true (String.length j1 > 100);
  Alcotest.(check bool) "byte-identical across runs" true (String.equal j1 j2)

let test_trace_golden () =
  let tr, _ = traced_run () in
  check_golden "trace" (trace_json tr)

let test_journal_golden () =
  let _, events = traced_run () in
  Alcotest.(check bool) "journal non-empty" true (events <> []);
  check_golden "journal" (journal_lines events)

(* --- OpenMetrics export ------------------------------------------------- *)

let test_prom_registry_render () =
  let reg = O.Registry.create () in
  let c = O.Registry.counter reg "engine.steps" in
  O.Counter.add c 3.0;
  let g = O.Registry.gauge reg "offered_bps" in
  O.Gauge.set g 1.5e9;
  let h = O.Registry.histogram reg "empty.hist" in
  ignore h;
  let s = O.Registry.span reg "controller.cycle" in
  O.Histogram.observe s 0.25;
  let out = O.Prom.of_registry reg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (string_contains ~needle out))
    [
      "# TYPE engine_steps counter";
      "engine_steps_total 3.0\n";
      "# TYPE offered_bps gauge";
      "offered_bps 1500000000.0\n";
      "# TYPE empty_hist summary";
      (* the clamped empty-histogram quantile: 0.0, never NaN *)
      "empty_hist{quantile=\"0.5\"} 0.0\n";
      "empty_hist_count 0.0\n";
      "# TYPE controller_cycle_seconds summary";
      "controller_cycle_seconds_sum 0.25\n";
    ];
  Alcotest.(check bool) "ends with EOF marker" true
    (String.length out >= 6
    && String.sub out (String.length out - 6) 6 = "# EOF\n")

let test_prom_label_escaping () =
  let fam =
    {
      O.Prom.fam_name = "weird metric";
      fam_help = "multi\nline";
      fam_kind = O.Prom.Gauge;
      fam_samples =
        [ O.Prom.sample ~labels:[ ("iface", "pni\"0\"\nup") ] 1.0 ];
    }
  in
  let out = O.Prom.render [ fam ] in
  Alcotest.(check bool) "name sanitized" true
    (string_contains ~needle:"# TYPE weird_metric gauge" out);
  Alcotest.(check bool) "help on one line" true
    (string_contains ~needle:"# HELP weird_metric multi line" out);
  Alcotest.(check bool) "label escaped" true
    (string_contains ~needle:"{iface=\"pni\\\"0\\\"\\nup\"} 1.0" out)

let test_trace_prom_families () =
  let snap = overloaded_snapshot () in
  let tr = R.create () in
  let ctrl = Ef.Controller.create ~trace:tr ~name:"test" () in
  ignore (Ef.Controller.cycle ctrl snap);
  let fams = Ef_trace.Export.prom_families tr in
  let find name = List.find_opt (fun f -> f.O.Prom.fam_name = name) fams in
  (match find "ef_trace_cycles_retained" with
  | Some f -> (
      match f.O.Prom.fam_samples with
      | [ s ] -> Alcotest.(check (float 0.0)) "one cycle" 1.0 s.O.Prom.s_value
      | _ -> Alcotest.fail "occupancy sample shape")
  | None -> Alcotest.fail "missing ef_trace_cycles_retained");
  (match find "ef_trace_override_churn" with
  | Some f ->
      let v action =
        List.find_map
          (fun s ->
            if s.O.Prom.s_labels = [ ("action", action) ] then
              Some s.O.Prom.s_value
            else None)
          f.O.Prom.fam_samples
      in
      Alcotest.(check bool) "installs counted" true (v "installed" = Some 1.0 || (match v "installed" with Some x -> x > 1.0 | None -> false))
  | None -> Alcotest.fail "missing ef_trace_override_churn");
  match find "ef_trace_iface_utilization" with
  | Some f ->
      let views =
        List.filter_map
          (fun s -> List.assoc_opt "view" s.O.Prom.s_labels)
          f.O.Prom.fam_samples
      in
      Alcotest.(check bool) "projected view" true (List.mem "projected" views);
      Alcotest.(check bool) "enforced view" true (List.mem "enforced" views);
      (* no simulator ran, so nothing annotated actuals *)
      Alcotest.(check bool) "no actual view" true (not (List.mem "actual" views))
  | None -> Alcotest.fail "missing ef_trace_iface_utilization"

let test_trace_prom_actual_view () =
  (* through the engine the simulator annotates ground truth *)
  let tr, _ = traced_run () in
  let fams = Ef_trace.Export.prom_families tr in
  match List.find_opt (fun f -> f.O.Prom.fam_name = "ef_trace_iface_utilization") fams with
  | Some f ->
      Alcotest.(check bool) "actual view annotated" true
        (List.exists
           (fun s -> List.assoc_opt "view" s.O.Prom.s_labels = Some "actual")
           f.O.Prom.fam_samples)
  | None -> Alcotest.fail "missing ef_trace_iface_utilization"

let suite =
  [
    Alcotest.test_case "noop is inert" `Quick test_noop_inert;
    Alcotest.test_case "ring bound" `Quick test_ring_bound;
    Alcotest.test_case "begin commits open cycle" `Quick
      test_begin_commits_open_cycle;
    Alcotest.test_case "controller causal chain" `Quick
      test_controller_causal_chain;
    Alcotest.test_case "explain chain" `Quick test_explain_chain;
    Alcotest.test_case "guard budget drops" `Quick test_guard_budget_drops;
    Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
    Alcotest.test_case "trace golden" `Quick test_trace_golden;
    Alcotest.test_case "journal golden" `Quick test_journal_golden;
    Alcotest.test_case "prom registry render" `Quick test_prom_registry_render;
    Alcotest.test_case "prom label escaping" `Quick test_prom_label_escaping;
    Alcotest.test_case "trace prom families" `Quick test_trace_prom_families;
    Alcotest.test_case "trace prom actual view" `Quick
      test_trace_prom_actual_view;
  ]
