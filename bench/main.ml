(* The benchmark harness.

   Two halves:
   - the experiment suite: regenerates every table/figure of the paper's
     evaluation (E1–E9 plus the ablations), printing paper-shaped rows;
   - the Bechamel microbenchmark suite (E10): controller-scale timings —
     allocator cycle time vs world size, plus the hot substrate paths
     (decision process, trie LPM, codec).

   `main.exe` runs both; `main.exe e4` (etc.) runs one experiment;
   `main.exe micro` runs only the timing suite; `main.exe all fast` uses
   coarser cycles for a quick pass. *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
module Ef = Edge_fabric
module E = Ef_sim.Experiments

(* ------------------------------------------------------------------ *)
(* Bechamel microbenches (E10)                                         *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* worlds and snapshots prepared once, outside the timed region *)
let snapshot_of scenario = Gen.snapshot_of_scenario ~time_s:(20 * 3600) scenario

let tiny_snap = lazy (snapshot_of N.Scenario.tiny)
let pop_a_snap = lazy (snapshot_of N.Scenario.pop_a)
let stress_snap = lazy (snapshot_of N.Scenario.stress)

let allocator_bench snap_lazy =
  Staged.stage (fun () ->
      let snap = Lazy.force snap_lazy in
      ignore (Ef.Allocator.run ~config:Ef.Config.default snap))

let allocator_ref_bench snap_lazy =
  Staged.stage (fun () ->
      let snap = Lazy.force snap_lazy in
      ignore (Allocator_ref.run ~config:Ef.Config.default snap))

let projection_bench snap_lazy =
  Staged.stage (fun () ->
      let snap = Lazy.force snap_lazy in
      ignore (Ef.Projection.project snap))

let decision_routes =
  lazy
    (let snap = Lazy.force pop_a_snap in
     List.filter_map
       (fun (p, _) ->
         match C.Snapshot.routes snap p with
         | [] | [ _ ] -> None
         | routes -> Some routes)
       (C.Snapshot.prefix_rates snap))

let decision_bench =
  Staged.stage (fun () ->
      List.iter
        (fun routes -> ignore (Bgp.Decision.rank routes))
        (Lazy.force decision_routes))

let lpm_trie =
  lazy
    (let snap = Lazy.force pop_a_snap in
     List.fold_left
       (fun t (p, r) -> Bgp.Ptrie.add p r t)
       Bgp.Ptrie.empty
       (C.Snapshot.prefix_rates snap))

let lpm_bench =
  Staged.stage (fun () ->
      let trie = Lazy.force lpm_trie in
      for i = 0 to 999 do
        let addr = Bgp.Ipv4.of_int32 (Int32.of_int (0x40000000 + (i * 77777))) in
        ignore (Bgp.Ptrie.longest_match addr trie)
      done)

let update_msg =
  lazy
    (Bgp.Msg.make_update
       ~attrs:
         (Bgp.Attrs.make ~med:(Some 10) ~local_pref:(Some 400)
            ~communities:[ Bgp.Community.make 65000 911 ]
            ~as_path:(Bgp.As_path.of_list [ Bgp.Asn.of_int 64500; Bgp.Asn.of_int 7 ])
            ~next_hop:(Bgp.Ipv4.of_string "10.0.0.1") ())
       ~nlri:
         (List.init 50 (fun i ->
              Bgp.Prefix.make (Bgp.Ipv4.of_octets 10 (i land 0xFF) 0 0) 24))
       ())

let codec_bench =
  Staged.stage (fun () ->
      let msg = Lazy.force update_msg in
      let wire = Bgp.Codec.encode msg in
      match Bgp.Codec.decode wire with
      | Ok _ -> ()
      | Error _ -> assert false)

(* the engine polls the injector several times per interface per cycle,
   so its query cost rides the hot step path *)
let fault_injector =
  lazy
    (match Ef_netsim.Scenario.find_fault_plan "chaos" with
    | Some plan -> Ef_fault.Injector.create plan
    | None -> assert false)

let fault_query_bench =
  Staged.stage (fun () ->
      let inj = Lazy.force fault_injector in
      for time_s = 0 to 599 do
        ignore (Ef_fault.Injector.link_down inj ~iface_id:0 ~time_s);
        ignore (Ef_fault.Injector.capacity_factor inj ~iface_id:1 ~time_s);
        ignore (Ef_fault.Injector.bmp_stalled inj ~time_s)
      done)

let micro_tests =
  [
    Test.make ~name:"allocator/tiny(~40pfx)" (allocator_bench tiny_snap);
    Test.make ~name:"allocator/pop-a(~1.5kpfx)" (allocator_bench pop_a_snap);
    Test.make ~name:"allocator/stress(~5kpfx)" (allocator_bench stress_snap);
    Test.make ~name:"projection/pop-a" (projection_bench pop_a_snap);
    Test.make ~name:"projection/stress" (projection_bench stress_snap);
    Test.make ~name:"decision-rank/pop-a-all-prefixes" decision_bench;
    Test.make ~name:"ptrie-lpm/1k-lookups" lpm_bench;
    Test.make ~name:"codec/update-50-nlri-roundtrip" codec_bench;
    Test.make ~name:"fault/injector-600s-queries" fault_query_bench;
  ]

(* measure one Bechamel case; returns (name, ns/run) *)
let measure_case ~cfg ~instance ~ols case =
  let raw = Benchmark.run cfg [ instance ] case in
  let result = Analyze.one ols instance raw in
  let ns =
    match Analyze.OLS.estimates result with
    | Some [ est ] -> est
    | Some _ | None -> nan
  in
  (Test.Elt.name case, ns)

let print_timing (name, ns) =
  if ns >= 1e9 then Printf.printf "  %-40s %10.3f s/run\n%!" name (ns /. 1e9)
  else if ns >= 1e6 then Printf.printf "  %-40s %10.3f ms/run\n%!" name (ns /. 1e6)
  else if ns >= 1e3 then Printf.printf "  %-40s %10.3f us/run\n%!" name (ns /. 1e3)
  else Printf.printf "  %-40s %10.0f ns/run\n%!" name ns

let measure_suite ?(fast = false) tests =
  let quota = if fast then 0.25 else 0.5 in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None () in
  let instance = Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.concat_map
    (fun test ->
      List.map
        (fun case ->
          let r = measure_case ~cfg ~instance ~ols case in
          print_timing r;
          r)
        (Test.elements test))
    tests

let run_micro ?fast () =
  print_endline "== E10: controller scale microbenchmarks (Bechamel) ==";
  let results = measure_suite ?fast micro_tests in
  print_newline ();
  results

(* E10d: one full allocator cycle, optimized implementation vs the frozen
   pre-PR reference (Allocator_ref, the test-side spec oracle), on the
   same prepared snapshots. The stress-scenario ratio is the PR's
   acceptance number. *)
let e10d_scenarios =
  [
    ("tiny", tiny_snap);
    ("pop-a", pop_a_snap);
    ("stress", stress_snap);
  ]

let run_e10d ?fast () =
  print_endline "== E10d: allocator cycle, optimized vs pre-PR reference ==";
  let rows =
    List.map
      (fun (label, snap) ->
        let results =
          measure_suite ?fast
            [
              Test.make ~name:("e10d/opt-" ^ label) (allocator_bench snap);
              Test.make ~name:("e10d/ref-" ^ label) (allocator_ref_bench snap);
            ]
        in
        let ns_of key =
          match List.assoc_opt (key ^ label) results with
          | Some ns -> ns
          | None -> nan
        in
        let opt_ns = ns_of "e10d/opt-" and ref_ns = ns_of "e10d/ref-" in
        let speedup = ref_ns /. opt_ns in
        Printf.printf "  %-40s %9.2fx speedup\n%!" ("e10d/" ^ label) speedup;
        (label, ref_ns, opt_ns, speedup))
      e10d_scenarios
  in
  print_newline ();
  rows

(* E11: fleet wall-clock vs --jobs. Each measurement builds a fresh
   fleet (engines are single-run) and times Fleet.run on the monotonic
   clock. Two fleet shapes: the four paper PoPs, and a generated 16-PoP
   fleet where domain parallelism has enough PoPs to bite. Every jobs
   value runs once untimed first: that pays world generation and spawns
   the process-wide pool's domains, so the timed run measures the
   persistent-pool reuse path, not a spawn/join. *)
let e11_jobs = [ 1; 2; 4 ]

let run_e11_fleet ?(fast = false) () =
  print_endline "== E11: fleet runner wall-clock vs domains (--jobs) ==";
  let hours = if fast then 2 else 6 in
  let config =
    Ef_sim.Engine.make_config ~cycle_s:300 ~duration_s:(hours * 3600) ~seed:11 ()
  in
  let fleets =
    [
      ("paper-4pop", N.Scenario.paper_pops);
      ("gen-16pop", N.Scenario.generated_fleet ~n:16 ());
    ]
  in
  let rows =
    List.concat_map
      (fun (label, scenarios) ->
        let time_run jobs =
          let fleet = Ef_sim.Fleet.create ~config scenarios in
          let t0 = Ef_obs.Clock.now_ns () in
          ignore (Ef_sim.Fleet.run ~jobs fleet);
          Ef_obs.Clock.elapsed_s t0
        in
        let measure jobs =
          ignore (time_run jobs);
          time_run jobs
        in
        let base = measure 1 in
        List.map
          (fun jobs ->
            let s = if jobs = 1 then base else measure jobs in
            let speedup = base /. s in
            Printf.printf "  %-12s jobs=%d  %8.2f s  %6.2fx\n%!" label jobs s
              speedup;
            (label, jobs, s, speedup))
          e11_jobs)
      fleets
  in
  print_newline ();
  rows

(* BENCH_PR5.json: the machine-readable perf trajectory record.

   The parallel-speedup acceptance only applies where it can physically
   show up: on a single-core box (this container, some CI shells) every
   jobs value serializes onto one core, so the gate is keyed on the
   domain count the runtime reports. *)
let write_bench_json path ~micro ~e10d ~e11 =
  let module J = Ef_obs.Json in
  let stress_speedup =
    match List.find_opt (fun (l, _, _, _) -> l = "stress") e10d with
    | Some (_, _, _, s) -> s
    | None -> nan
  in
  let cores = Domain.recommended_domain_count () in
  let gen16_speedup_j4 =
    match
      List.find_opt (fun (l, j, _, _) -> l = "gen-16pop" && j = 4) e11
    with
    | Some (_, _, _, s) -> s
    | None -> nan
  in
  let json =
    J.Obj
      [
        ("schema", J.String "edge-fabric-bench/1");
        ("pr", J.Int 5);
        ("source", J.String "bench/main.exe micro");
        ("cores", J.Int cores);
        ( "micro",
          J.List
            (List.map
               (fun (name, ns) ->
                 J.Obj [ ("name", J.String name); ("ns_per_run", J.Float ns) ])
               micro) );
        ( "e10d",
          J.List
            (List.map
               (fun (label, ref_ns, opt_ns, speedup) ->
                 J.Obj
                   [
                     ("scenario", J.String label);
                     ("ref_ns_per_run", J.Float ref_ns);
                     ("opt_ns_per_run", J.Float opt_ns);
                     ("speedup", J.Float speedup);
                   ])
               e10d) );
        ( "e11_fleet",
          J.List
            (List.map
               (fun (label, jobs, seconds, speedup) ->
                 J.Obj
                   [
                     ("fleet", J.String label);
                     ("jobs", J.Int jobs);
                     ("wall_s", J.Float seconds);
                     ("speedup_vs_jobs1", J.Float speedup);
                   ])
               e11) );
        ( "acceptance",
          J.Obj
            [
              ("stress_speedup", J.Float stress_speedup);
              ("stress_required_min", J.Float 5.0);
              ("gen16_jobs4_speedup", J.Float gen16_speedup_j4);
              ("gen16_jobs4_required_min", J.Float 2.0);
              ( "gen16_jobs4_applicable",
                (* < 4 cores: domains serialize, the 2x bar can't show *)
                J.Bool (cores >= 4) );
              ( "gen16_status",
                (* explicit verdict: "skipped" (too few cores to judge),
                   never a silent pass-when-inapplicable *)
                J.String
                  (if cores < 4 then "skipped"
                   else if gen16_speedup_j4 >= 2.0 then "pass"
                   else "fail") );
              ( "pass",
                J.Bool
                  (stress_speedup >= 5.0
                  && (cores < 4 || gen16_speedup_j4 >= 2.0)) );
            ] );
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s (stress %.2fx, gen16 jobs=4 %.2fx on %d cores)\n%!"
    path stress_speedup gen16_speedup_j4 cores

(* ------------------------------------------------------------------ *)
(* E13: dfz end-to-end incremental cycles (BENCH_PR7.json)             *)
(* ------------------------------------------------------------------ *)

(* Full mode runs the million-prefix world; fast mode (the CI smoke)
   the 50k variant. Differential verification re-assembles every
   snapshot and replays the whole world through a cold pipeline, so it
   always runs at smoke scale — at 1M the reference side alone would
   take minutes per cycle. In fast mode the main run verifies inline;
   in full mode a separate smoke-scale run carries the identity bit. *)
let run_e13_dfz ~fast () =
  let module D = Ef_sim.Dfz_run in
  let scale, dfz_cfg, cycles =
    if fast then ("dfz-smoke", N.Scenario.dfz_smoke, 10)
    else ("dfz", N.Scenario.dfz, 30)
  in
  Printf.printf "== E13: dfz end-to-end cycles (%s) ==\n%!" scale;
  let report = D.run ~config:(D.config ~cycles ~verify:fast ()) dfz_cfg in
  Format.printf "%a@." D.pp_report report;
  let verify_report =
    if fast then report
    else begin
      Printf.printf "-- differential verification (dfz-smoke) --\n%!";
      let r =
        D.run ~config:(D.config ~cycles:10 ~verify:true ()) N.Scenario.dfz_smoke
      in
      Format.printf "%a@." D.pp_report r;
      r
    end
  in
  (scale, report, verify_report)

(* BENCH_PR7.json: the e13 acceptance record. The p99 bar is stated
   over steady-state churn, so cycle 0 — which assembles the table from
   nothing — is excluded from the acceptance percentile (both figures
   are reported). *)
let write_bench_pr7_json path ~dfz:(scale, report, verify_report) =
  let module D = Ef_sim.Dfz_run in
  let module J = Ef_obs.Json in
  let steady_p99 = D.steady_p99_s report in
  let identical =
    verify_report.D.verified_cycles > 0 && verify_report.D.mismatches = []
  in
  let hits_expected = report.D.cycles_run - 1 in
  let pass =
    steady_p99 < 1.0 && identical
    && report.D.incremental_hits = hits_expected
  in
  let json =
    J.Obj
      [
        ("schema", J.String "edge-fabric-bench/1");
        ("pr", J.Int 7);
        ("source", J.String "bench/main.exe e13");
        ("experiment", J.String "e13-dfz");
        ("scale", J.String scale);
        ("dfz", D.report_to_json report);
        ("verify", D.report_to_json verify_report);
        ( "acceptance",
          J.Obj
            [
              ("steady_p99_s", J.Float steady_p99);
              ("steady_p99_required_max_s", J.Float 1.0);
              ( "steady_note",
                J.String
                  "cycle 0 assembles the table cold; the steady-state churn \
                   bar applies from cycle 1" );
              ("full_scale", J.Bool (scale = "dfz"));
              ("incremental_identical", J.Bool identical);
              ("verified_cycles", J.Int verify_report.D.verified_cycles);
              ("incremental_hits", J.Int report.D.incremental_hits);
              ("incremental_hits_expected", J.Int hits_expected);
              ("pass", J.Bool pass);
            ] );
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s (%s: steady p99 %.3fs, identical=%b, hits %d/%d)\n%!"
    path scale steady_p99 identical report.D.incremental_hits hits_expected

(* ------------------------------------------------------------------ *)
(* E16: flap cycles on the warm path (BENCH_PR10.json)                *)
(* ------------------------------------------------------------------ *)

(* The dfz world under the canned dfz-flap plan: iface 1 flaps (whole
   interface disappears and returns), iface 2 is derated. The flap-cycle
   latency of the warm path is the figure; the run must never fall back
   to cold on those cycles. 300 s cycles cover the plan's windows in 12
   cycles. Verification always runs at smoke scale (as in e13). *)
let run_e16_flap ~fast () =
  let module D = Ef_sim.Dfz_run in
  let scale, dfz_cfg =
    if fast then ("dfz-smoke", N.Scenario.dfz_smoke) else ("dfz", N.Scenario.dfz)
  in
  let cycles = 12 and cycle_s = 300 in
  let faults =
    match N.Scenario.find_fault_plan "dfz-flap" with
    | Some p -> p
    | None -> failwith "canned plan dfz-flap missing"
  in
  Printf.printf "== E16: dfz flap cycles on the warm path (%s) ==\n%!" scale;
  let warm =
    D.run
      ~config:(D.config ~cycles ~cycle_s ~verify:fast ~faults ())
      dfz_cfg
  in
  Format.printf "warm:   %a@." D.pp_report warm;
  List.iter
    (fun c ->
      Printf.printf "  flap cycle %2d: warm %.3fs\n%!" c warm.D.cycle_seconds.(c))
    warm.D.iface_event_cycles;
  let verify_report =
    if fast then warm
    else begin
      Printf.printf "-- differential verification (dfz-smoke) --\n%!";
      let r =
        D.run
          ~config:(D.config ~cycles ~cycle_s ~verify:true ~faults ())
          N.Scenario.dfz_smoke
      in
      Format.printf "%a@." D.pp_report r;
      r
    end
  in
  (scale, warm, verify_report)

let write_bench_pr10_json path ~e16:(scale, warm, verify_report) =
  let module D = Ef_sim.Dfz_run in
  let module J = Ef_obs.Json in
  let flap = warm.D.iface_event_cycles in
  let flap_p99 =
    match flap with
    | [] -> 0.0
    | _ ->
        let a = Array.of_list (List.map (fun c -> warm.D.cycle_seconds.(c)) flap) in
        Array.sort Float.compare a;
        let n = Array.length a in
        a.(max 0 (min (n - 1) (int_of_float (ceil (0.99 *. float_of_int n)) - 1)))
  in
  let identical =
    verify_report.D.verified_cycles > 0 && verify_report.D.mismatches = []
  in
  let hits_expected = warm.D.cycles_run - 1 in
  let pass =
    identical && flap <> []
    && warm.D.incremental_hits = hits_expected
    && flap_p99 < 1.0
  in
  let json =
    J.Obj
      [
        ("schema", J.String "edge-fabric-bench/1");
        ("pr", J.Int 10);
        ("source", J.String "bench/main.exe e16");
        ("experiment", J.String "e16-iface-churn");
        ("scale", J.String scale);
        ("warm", D.report_to_json warm);
        ("verify", D.report_to_json verify_report);
        ( "acceptance",
          J.Obj
            [
              ("flap_cycles", J.Int (List.length flap));
              ("flap_p99_s", J.Float flap_p99);
              ("flap_p99_required_max_s", J.Float 1.0);
              ("incremental_identical", J.Bool identical);
              ("verified_cycles", J.Int verify_report.D.verified_cycles);
              ("incremental_hits", J.Int warm.D.incremental_hits);
              ("incremental_hits_expected", J.Int hits_expected);
              ( "note",
                J.String
                  "flap percentiles are over the cycles whose snapshot delta \
                   carried interface-set changes; the warm run must never \
                   fall back to cold on them" );
              ("pass", J.Bool pass);
            ] );
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s (%s: flap p99 %.3fs, identical=%b, hits %d/%d)\n%!"
    path scale flap_p99 identical warm.D.incremental_hits hits_expected

(* `json-check FILE`: exit 0 iff FILE parses as JSON and carries the
   bench schema — the CI gate against a malformed report *)
let json_check path =
  let module J = Ef_obs.Json in
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match J.parse contents with
  | Error e ->
      Printf.eprintf "%s: malformed JSON: %s\n" path e;
      exit 1
  | Ok json -> (
      match Option.bind (J.member "schema" json) J.to_string_opt with
      | Some "edge-fabric-bench/1" -> Printf.printf "%s: ok\n%!" path
      | Some other ->
          Printf.eprintf "%s: unexpected schema %S\n" path other;
          exit 1
      | None ->
          Printf.eprintf "%s: missing \"schema\" field\n" path;
          exit 1)

(* per-stage attribution of the controller cycle, from the Ef_obs spans:
   where inside a cycle the time actually goes on the pop-a world *)
let run_stage_attribution () =
  let cycles = 50 in
  print_endline "== E10b: controller cycle stage attribution (Ef_obs spans) ==";
  let reg = Ef_obs.Registry.create () in
  let ctrl = Ef.Controller.create ~obs:reg ~name:"bench" () in
  let snap = Lazy.force pop_a_snap in
  for _ = 1 to cycles do
    ignore (Ef.Controller.cycle ctrl snap)
  done;
  let total =
    match Ef_obs.Registry.find reg "controller.cycle" with
    | Some (Ef_obs.Registry.Span_m h) -> Ef_obs.Histogram.sum h
    | _ -> 0.0
  in
  Printf.printf "  %d cycles on pop-a, %.3f ms/cycle total\n" cycles
    (1e3 *. total /. float_of_int cycles);
  List.iter
    (fun name ->
      match Ef_obs.Registry.find reg name with
      | Some (Ef_obs.Registry.Span_m h) ->
          let sum = Ef_obs.Histogram.sum h in
          Printf.printf "  %-26s %10.3f ms/cycle  p99 %8.3f ms  %5.1f%%\n" name
            (1e3 *. sum /. float_of_int cycles)
            (1e3 *. Ef_obs.Histogram.quantile h 0.99)
            (if total > 0.0 then 100.0 *. sum /. total else 0.0)
      | _ -> ())
    [
      "controller.allocate";
      "controller.guard.clamp";
      "controller.reconcile";
      "controller.project";
      "controller.guard.audit";
    ];
  print_newline ()

(* E10c: what decision tracing costs. Three controllers on the same
   snapshot: no recorder (the noop), recorder enabled, and enabled with a
   small ring (more truncation). The acceptance bar for the trace layer
   is noop within 2% of the pre-trace baseline — the noop run IS the
   shipped default path, so its delta vs itself is what CI watches. *)
let run_trace_overhead () =
  let cycles = 50 in
  print_endline "== E10c: decision-trace overhead (noop vs enabled) ==";
  let snap = Lazy.force pop_a_snap in
  let ms_per_cycle ~trace name =
    Gc.compact ();
    let reg = Ef_obs.Registry.create () in
    let ctrl = Ef.Controller.create ~obs:reg ~trace ~name () in
    for _ = 1 to cycles do
      ignore (Ef.Controller.cycle ctrl snap)
    done;
    match Ef_obs.Registry.find reg "controller.cycle" with
    | Some (Ef_obs.Registry.Span_m h) ->
        1e3 *. Ef_obs.Histogram.sum h /. float_of_int cycles
    | _ -> nan
  in
  let noop = ms_per_cycle ~trace:Ef_trace.Recorder.noop "bench-notrace" in
  let full =
    ms_per_cycle ~trace:(Ef_trace.Recorder.create ()) "bench-trace"
  in
  let small =
    ms_per_cycle ~trace:(Ef_trace.Recorder.create ~capacity:4 ()) "bench-ring4"
  in
  Printf.printf "  %-26s %10.3f ms/cycle\n" "trace disabled (noop)" noop;
  Printf.printf "  %-26s %10.3f ms/cycle  (%+.1f%% vs noop)\n" "trace enabled"
    full
    (if noop > 0.0 then 100.0 *. (full -. noop) /. noop else nan);
  Printf.printf "  %-26s %10.3f ms/cycle  (%+.1f%% vs noop)\n"
    "trace enabled, ring=4" small
    (if noop > 0.0 then 100.0 *. (small -. noop) /. noop else nan);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E14: health/profiling overhead (BENCH_PR8.json)                     *)
(* ------------------------------------------------------------------ *)

(* What continuous self-profiling costs. Two controllers on the stress
   snapshot: the shipped default (no profile hook, noop tracker) and the
   fully enabled health stack (profiler attached to the registry, so
   every span pays the hook dispatch, plus the tracker fed once per
   cycle). Wall time is measured around the cycle loop — not from the
   spans, which would exclude their own hook cost — and each config takes
   the minimum over [reps] fresh runs, so scheduler noise cannot fail the
   gate. The acceptance bar: enabled within 2% of noop. *)
let run_e14_health ?(fast = false) () =
  let cycles = 30 and reps = if fast then 3 else 5 in
  print_endline "== E14: health/profiling overhead (noop vs enabled) ==";
  let snap = Lazy.force stress_snap in
  let ms_per_cycle ~enabled name =
    let best = ref infinity in
    for _ = 1 to reps do
      Gc.compact ();
      let reg = Ef_obs.Registry.create () in
      let health =
        if enabled then begin
          let p = Ef_health.Profiler.create () in
          Ef_health.Profiler.attach p reg;
          Ef_health.Tracker.create ~profiler:p ~obs:reg ()
        end
        else Ef_health.Tracker.noop
      in
      let ctrl = Ef.Controller.create ~obs:reg ~name () in
      let t0 = Ef_obs.Clock.now_ns () in
      for cycle = 1 to cycles do
        let c0 = Ef_obs.Clock.now_ns () in
        let stats = Ef.Controller.cycle ctrl snap in
        if Ef_health.Tracker.enabled health then
          ignore
            (Ef_health.Tracker.observe_cycle health
               {
                 Ef_health.Tracker.time_s = 30 * cycle;
                 duration_s = Ef_obs.Clock.elapsed_s c0;
                 degraded = Ef.Controller.degraded stats <> None;
                 skipped = false;
                 stale = false;
                 violations = List.length (Ef.Controller.guard_violations stats);
                 residual = List.length (Ef.Controller.residual_overloads stats);
               })
      done;
      let ms = 1e3 *. Ef_obs.Clock.elapsed_s t0 /. float_of_int cycles in
      if ms < !best then best := ms
    done;
    !best
  in
  let noop = ms_per_cycle ~enabled:false "bench-health-noop" in
  let enabled = ms_per_cycle ~enabled:true "bench-health-on" in
  let overhead_pct =
    if noop > 0.0 then 100.0 *. (enabled -. noop) /. noop else nan
  in
  Printf.printf "  %-26s %10.3f ms/cycle\n" "health disabled (noop)" noop;
  Printf.printf "  %-26s %10.3f ms/cycle  (%+.2f%% vs noop)\n"
    "profiler + tracker" enabled overhead_pct;
  print_newline ();
  (noop, enabled, overhead_pct)

let write_bench_pr8_json path ~e14:(noop_ms, enabled_ms, overhead_pct) =
  let module J = Ef_obs.Json in
  let pass = overhead_pct <= 2.0 in
  let json =
    J.Obj
      [
        ("schema", J.String "edge-fabric-bench/1");
        ("pr", J.Int 8);
        ("source", J.String "bench/main.exe e14");
        ("experiment", J.String "e14-health-overhead");
        ("scenario", J.String "stress");
        ("cycles", J.Int 30);
        ("noop_ms_per_cycle", J.Float noop_ms);
        ("enabled_ms_per_cycle", J.Float enabled_ms);
        ( "acceptance",
          J.Obj
            [
              ("overhead_pct", J.Float overhead_pct);
              ("overhead_required_max_pct", J.Float 2.0);
              ( "note",
                J.String
                  "min-of-reps wall time per controller cycle on the stress \
                   snapshot; enabled = profiler hook on every span + GC \
                   counters + tracker fed per cycle" );
              ("pass", J.Bool pass);
            ] );
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s (overhead %+.2f%%, pass=%b)\n%!" path overhead_pct
    pass

(* ------------------------------------------------------------------ *)
(* Experiment dispatch                                                 *)
(* ------------------------------------------------------------------ *)

let experiments : (string * string * (E.run_params -> Ef_stats.Table.t)) list =
  [
    ("e1", "peering characterization (Table 1)", fun _ -> E.e1_peering ());
    ("e2", "route diversity (Fig. 2)", fun _ -> E.e2_route_diversity ());
    ("e3", "BGP preference mix (Fig. 3)", fun _ -> E.e3_preference_mix ());
    ( "e4",
      "projected overload under BGP alone (Fig. 4)",
      fun p -> E.e4_bgp_only_overload ~params:p () );
    ( "e5",
      "detour volume with Edge Fabric (Fig. 7)",
      fun p -> E.e5_detour_volume ~params:p () );
    ( "e6",
      "detour placement by preference level (Fig. 8)",
      fun p -> E.e6_detour_levels ~params:p () );
    ( "e7",
      "override churn + hysteresis ablation (Fig. 9, A2)",
      fun p -> E.e7_override_churn ~params:p () );
    ( "e8",
      "alternate-path RTT quality (Fig. 10)",
      fun p -> E.e8_altpath_quality ~params:p () );
    ( "e9",
      "RTT impact of detours at peak (§6)",
      fun p -> E.e9_detour_rtt_impact ~params:p () );
    ( "e12",
      "performance-aware routing extension (§7)",
      fun p -> E.e12_perf_aware ~params:p () );
    ("a1", "iterative vs single-pass allocator", fun p -> E.a1_single_pass ~params:p ());
    ("a3", "overload threshold sweep", fun p -> E.a3_threshold_sweep ~params:p ());
    ("a4", "detour granularity", fun p -> E.a4_granularity ~params:p ());
  ]

let run_one params (id, title, f) =
  Printf.printf "== %s: %s ==\n%!" (String.uppercase_ascii id) title;
  Ef_stats.Table.print (f params)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "json-check"; path ] -> json_check path
  | _ ->
      let fast = List.mem "fast" args in
      let json_out =
        List.find_map
          (fun a ->
            if String.length a > 5 && String.sub a 0 5 = "json=" then
              Some (String.sub a 5 (String.length a - 5))
            else None)
          args
      in
      let params =
        if fast then { E.default_params with E.cycle_s = 600 }
        else E.default_params
      in
      let run_micro_suite () =
        let micro = run_micro ~fast () in
        let e10d = run_e10d ~fast () in
        run_stage_attribution ();
        run_trace_overhead ();
        let e11 = run_e11_fleet ~fast () in
        Option.iter
          (fun path -> write_bench_json path ~micro ~e10d ~e11)
          json_out
      in
      let selected =
        List.filter
          (fun a ->
            a <> "fast" && not (String.length a > 5 && String.sub a 0 5 = "json="))
          args
      in
      (match selected with
      | [] | [ "all" ] ->
          List.iter (run_one params) experiments;
          run_micro_suite ()
      | ids ->
          List.iter
            (fun id ->
              if id = "micro" then run_micro_suite ()
              else if id = "e11" then ignore (run_e11_fleet ~fast ())
              else if id = "e13" then
                let dfz = run_e13_dfz ~fast () in
                Option.iter (fun path -> write_bench_pr7_json path ~dfz) json_out
              else if id = "e14" then
                let e14 = run_e14_health ~fast () in
                Option.iter (fun path -> write_bench_pr8_json path ~e14) json_out
              else if id = "e16" then
                let e16 = run_e16_flap ~fast () in
                Option.iter (fun path -> write_bench_pr10_json path ~e16) json_out
              else
                match List.find_opt (fun (i, _, _) -> i = id) experiments with
                | Some exp -> run_one params exp
                | None ->
                    Printf.eprintf
                      "unknown experiment %S (known: %s, e11, e13, e14, e16, \
                       micro, all; modifiers: fast, json=FILE)\n"
                      id
                      (String.concat ", "
                         (List.map (fun (i, _, _) -> i) experiments));
                    exit 1)
            ids)
