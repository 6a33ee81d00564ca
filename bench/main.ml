(* The benchmark harness.

   Two halves:
   - the experiment suite: regenerates every table/figure of the paper's
     evaluation (E1–E9 plus the ablations), printing paper-shaped rows;
   - the bench experiments: the Bechamel microbenchmark suite (`micro`:
     E10 controller-scale timings, the E10d allocator speedup, the E10c
     trace overhead and the E11 fleet wall-clock), the e13 dfz scale run,
     the e14 health overhead and the e16 flap run. Each returns one
     section of the bench record plus its gates.

   `main.exe` runs the paper experiments and `micro`; `main.exe e4`
   (etc.) runs one experiment; `fast` uses coarser cycles and quotas for
   a quick pass; `json=FILE` writes the run's bench record to FILE;
   `main.exe json-check FILE` validates a record and exits 1 when any
   gate failed. *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
module Ef = Edge_fabric
module E = Ef_sim.Experiments

(* ------------------------------------------------------------------ *)
(* The bench record: sections and gates                                *)
(* ------------------------------------------------------------------ *)

(* Each bench experiment returns one JSON section and its gates; one
   writer ([write_record]) puts a run's sections and gates into one
   edge-fabric-bench/2 record. A gate's status is derived from its value,
   op and bound by [gate] alone (json-check derives it again), so no
   experiment hand-writes a verdict. *)
module J = Ef_obs.Json

let schema = "edge-fabric-bench/2"

let ops : (string * (float -> float -> bool)) list =
  [ (">=", ( >= )); (">", ( > )); ("<=", ( <= )); ("<", ( < )); ("=", ( = )) ]

type gate = {
  name : string;
  value : float;
  op : string;
  bound : float;
  status : string;  (* "pass", "fail" or "skipped" *)
}

(* [skip]: the gate cannot be judged on this machine; it is recorded as
   "skipped", never as a pass *)
let gate ?(skip = false) name value op bound =
  let status =
    if skip then "skipped"
    else if (List.assoc op ops) value bound then "pass"
    else "fail"
  in
  { name; value; op; bound; status }

let gate_to_json g =
  J.Obj
    [
      ("name", J.String g.name);
      ("value", J.Float g.value);
      ("op", J.String g.op);
      ("bound", J.Float g.bound);
      ("status", J.String g.status);
    ]

let print_gate g =
  Printf.printf "gate %-28s %12.6g %-2s %-4g %s\n" g.name g.value g.op g.bound
    g.status

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

let measure_suite ~fast tests =
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

let run_micro ~fast =
  print_endline "== E10: controller scale microbenchmarks (Bechamel) ==";
  let results = measure_suite ~fast micro_tests in
  print_newline ();
  J.List
    (List.map
       (fun (name, ns) ->
         J.Obj [ ("name", J.String name); ("ns_per_run", J.Float ns) ])
       results)

(* E10d: one full allocator cycle, optimized implementation vs the frozen
   pre-PR reference (Allocator_ref, the test-side spec oracle), on the
   same prepared snapshots. The stress-scenario ratio is gated. *)
let e10d_scenarios =
  [
    ("tiny", tiny_snap);
    ("pop-a", pop_a_snap);
    ("stress", stress_snap);
  ]

let run_e10d ~fast =
  print_endline "== E10d: allocator cycle, optimized vs pre-PR reference ==";
  let rows =
    List.map
      (fun (label, snap) ->
        let results =
          measure_suite ~fast
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
  let stress_speedup =
    match List.find_opt (fun (l, _, _, _) -> l = "stress") rows with
    | Some (_, _, _, s) -> s
    | None -> nan
  in
  ( J.List
      (List.map
         (fun (label, ref_ns, opt_ns, speedup) ->
           J.Obj
             [
               ("scenario", J.String label);
               ("ref_ns_per_run", J.Float ref_ns);
               ("opt_ns_per_run", J.Float opt_ns);
               ("speedup", J.Float speedup);
             ])
         rows),
    [ gate "e10d.stress_speedup" stress_speedup ">=" 5.0 ] )

(* E11: fleet wall-clock vs --jobs. Each measurement builds a fresh
   fleet (engines are single-run) and times Fleet.run on the monotonic
   clock. Two fleet shapes: the four paper PoPs, and a generated 16-PoP
   fleet where domain parallelism has enough PoPs to bite. Every jobs
   value runs once untimed first, which pays world generation. Each
   Fleet.run forks its domains and joins them before it returns, so the
   timed figure includes one spawn/join per domain and no domain idles
   into the later experiments of the process. *)
let e11_jobs = [ 1; 2; 4 ]

let run_e11_fleet ~fast =
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
  let gen16_jobs4 =
    match List.find_opt (fun (l, j, _, _) -> l = "gen-16pop" && j = 4) rows with
    | Some (_, _, _, s) -> s
    | None -> nan
  in
  ( J.List
      (List.map
         (fun (label, jobs, seconds, speedup) ->
           J.Obj
             [
               ("fleet", J.String label);
               ("jobs", J.Int jobs);
               ("wall_s", J.Float seconds);
               ("speedup_vs_jobs1", J.Float speedup);
             ])
         rows),
    [
      (* below 4 cores every jobs value serializes onto the cores there
         are, so the 2x bar cannot show *)
      gate
        ~skip:(Domain.recommended_domain_count () < 4)
        "e11.gen16pop_jobs4_speedup" gen16_jobs4 ">=" 2.0;
    ] )

(* E10c: what decision tracing costs. Three controllers on the same
   snapshot: no recorder (the noop, the shipped default path), recorder
   enabled, and enabled with a small ring (more truncation). *)
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
  print_newline ();
  J.Obj
    [
      ("cycles", J.Int cycles);
      ("noop_ms_per_cycle", J.Float noop);
      ("traced_ms_per_cycle", J.Float full);
      ("traced_ring4_ms_per_cycle", J.Float small);
    ]

(* `micro`: E10, E10d, E10c and E11 as one section *)
let run_micro_suite ~fast =
  let e10 = run_micro ~fast in
  let e10d, e10d_gates = run_e10d ~fast in
  let e10c = run_trace_overhead () in
  let e11, e11_gates = run_e11_fleet ~fast in
  ( J.Obj
      [ ("e10", e10); ("e10d", e10d); ("e10c", e10c); ("e11_fleet", e11) ],
    e10d_gates @ e11_gates )

(* ------------------------------------------------------------------ *)
(* E13 / E16: dfz end-to-end cycles                                    *)
(* ------------------------------------------------------------------ *)

module D = Ef_sim.Dfz_run

(* Differential verification re-assembles every snapshot and replays the
   whole world through a cold pipeline, so it always runs at smoke scale
   — at 1M the reference side alone would take minutes per cycle. In
   fast mode the main run verifies inline; in full mode a separate
   smoke-scale run under [config] carries the identity gates. *)
let verify_run ~fast ~config main =
  if fast then main
  else begin
    Printf.printf "-- differential verification (dfz-smoke) --\n%!";
    let r = D.run ~config N.Scenario.dfz_smoke in
    Format.printf "%a@." D.pp_report r;
    r
  end

(* the warm path engaged on every patched cycle of [main], and the
   verified run matched the cold reference exactly *)
let warm_path_gates prefix ~main ~verify =
  [
    gate (prefix ^ ".verified_cycles")
      (float_of_int verify.D.verified_cycles) ">" 0.0;
    gate (prefix ^ ".mismatches")
      (float_of_int (List.length verify.D.mismatches)) "=" 0.0;
    gate (prefix ^ ".incremental_hits")
      (float_of_int main.D.incremental_hits) "="
      (float_of_int (main.D.cycles_run - 1));
  ]

(* E13: full mode runs the million-prefix world; fast mode (the CI smoke)
   the 50k variant. *)
let run_e13_dfz ~fast =
  let scale, dfz_cfg, cycles =
    if fast then ("dfz-smoke", N.Scenario.dfz_smoke, 10)
    else ("dfz", N.Scenario.dfz, 30)
  in
  Printf.printf "== E13: dfz end-to-end cycles (%s) ==\n%!" scale;
  let report = D.run ~config:(D.config ~cycles ~verify:fast ()) dfz_cfg in
  Format.printf "%a@." D.pp_report report;
  let verify =
    verify_run ~fast ~config:(D.config ~cycles:10 ~verify:true ()) report
  in
  ( J.Obj
      [
        ("scale", J.String scale);
        ("dfz", D.report_to_json report);
        ("verify", D.report_to_json verify);
        ( "note",
          J.String
            "cycle 0 assembles the table cold; the steady-state p99 gate \
             applies from cycle 1" );
      ],
    gate "e13.steady_p99_s" (D.p99_s report) "<" 0.3
    :: warm_path_gates "e13" ~main:report ~verify )

(* E16: the dfz world under the canned dfz-flap plan: iface 1 flaps
   (whole interface disappears and returns), iface 2 is derated. The
   flap-cycle latency of the warm path is the figure; the run must never
   fall back to cold on those cycles. 300 s cycles cover the plan's
   windows in 12 cycles. *)
let run_e16_flap ~fast =
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
  let flap = warm.D.iface_event_cycles in
  List.iter
    (fun c ->
      Printf.printf "  flap cycle %2d: warm %.3fs\n%!" c warm.D.cycle_seconds.(c))
    flap;
  let verify =
    verify_run ~fast
      ~config:(D.config ~cycles ~cycle_s ~verify:true ~faults ())
      warm
  in
  let flap_p99 =
    D.percentile
      (Array.of_list (List.map (fun c -> warm.D.cycle_seconds.(c)) flap))
      0.99
  in
  ( J.Obj
      [
        ("scale", J.String scale);
        ("warm", D.report_to_json warm);
        ("verify", D.report_to_json verify);
        ( "note",
          J.String
            "the flap p99 is over the cycles whose snapshot delta carried \
             interface-set changes" );
      ],
    gate "e16.flap_cycles" (float_of_int (List.length flap)) ">" 0.0
    :: gate "e16.flap_p99_s" flap_p99 "<" 1.0
    :: warm_path_gates "e16" ~main:warm ~verify )

(* ------------------------------------------------------------------ *)
(* E14: health/profiling overhead                                      *)
(* ------------------------------------------------------------------ *)

(* What continuous self-profiling costs. Two controllers on the stress
   snapshot: the shipped default (no profile hook, noop tracker) and the
   fully enabled health stack (profiler attached to the registry, so
   every span pays the hook dispatch, plus the tracker fed once per
   cycle). Wall time is measured around the cycle loop — not from the
   spans, which would exclude their own hook cost. The runs come in
   noop/enabled pairs that alternate which side goes first, and the gate
   judges the median of the per-pair enabled/noop ratios: timing one side
   always first biased the comparison by several percent, and a host
   spell during one run moves one ratio, not the median. *)
let run_e14_health ~fast =
  let cycles = 30 and pairs = if fast then 41 else 61 in
  print_endline "== E14: health/profiling overhead (noop vs enabled) ==";
  let snap = Lazy.force stress_snap in
  let ms_per_cycle ~enabled =
    Gc.compact ();
    let reg = Ef_obs.Registry.create () in
    let health =
      if enabled then begin
        Ef_health.Profiler.attach (Ef_health.Profiler.create ()) reg;
        Ef_health.Tracker.create ~obs:reg ()
      end
      else Ef_health.Tracker.noop
    in
    let name = if enabled then "bench-health-on" else "bench-health-noop" in
    let ctrl = Ef.Controller.create ~obs:reg ~name () in
    let t0 = Ef_obs.Clock.now_ns () in
    for cycle = 1 to cycles do
      let c0 = Ef_obs.Clock.now_ns () in
      let stats = Ef.Controller.cycle ctrl snap in
      Ef_sim.Engine.observe_health health ~time_s:(30 * cycle)
        ~duration_s:(Ef_obs.Clock.elapsed_s c0) ~stale:false (Some stats)
    done;
    1e3 *. Ef_obs.Clock.elapsed_s t0 /. float_of_int cycles
  in
  let runs =
    List.init pairs (fun i ->
        if i mod 2 = 0 then
          let noop = ms_per_cycle ~enabled:false in
          (noop, ms_per_cycle ~enabled:true)
        else
          let enabled = ms_per_cycle ~enabled:true in
          (ms_per_cycle ~enabled:false, enabled))
  in
  let median xs = D.percentile (Array.of_list xs) 0.5 in
  let noop = median (List.map fst runs) in
  let enabled = median (List.map snd runs) in
  let overhead_pct =
    100.0 *. (median (List.map (fun (n, e) -> e /. n) runs) -. 1.0)
  in
  Printf.printf "  %-26s %10.3f ms/cycle\n" "health disabled (noop)" noop;
  Printf.printf "  %-26s %10.3f ms/cycle  (%+.2f%% vs noop, median pair)\n"
    "profiler + tracker" enabled overhead_pct;
  print_newline ();
  ( J.Obj
      [
        ("scenario", J.String "stress");
        ("cycles", J.Int cycles);
        ("pairs", J.Int pairs);
        ("noop_ms_per_cycle", J.Float noop);
        ("enabled_ms_per_cycle", J.Float enabled);
        ( "note",
          J.String
            (Printf.sprintf
               "overhead = median over %d noop/enabled pairs (alternating \
                which runs first) of the enabled/noop ratio of wall time per \
                controller cycle, %d cycles per run on the stress snapshot; \
                the ms figures are each side's median; enabled = profiler \
                hook on every span + GC counters + tracker fed per cycle"
               pairs cycles) );
      ],
    [ gate "e14.overhead_pct" overhead_pct "<=" 2.0 ] )

(* ------------------------------------------------------------------ *)
(* The record writer and its checker                                   *)
(* ------------------------------------------------------------------ *)

(* One run, one record: run metadata, each bench experiment's section,
   and every gate of the run. *)
let write_record path ~fast sections =
  let json =
    J.Obj
      [
        ("schema", J.String schema);
        ( "run",
          J.Obj
            [
              ("mode", J.String (if fast then "fast" else "full"));
              ("cores", J.Int (Domain.recommended_domain_count ()));
              ("ocaml", J.String Sys.ocaml_version);
              ( "argv",
                J.List
                  (List.map
                     (fun a -> J.String a)
                     (Filename.basename Sys.argv.(0)
                     :: List.tl (Array.to_list Sys.argv))) );
            ] );
        ( "experiments",
          J.Obj (List.map (fun (id, (section, _)) -> (id, section)) sections) );
        ( "gates",
          J.List
            (List.concat_map
               (fun (_, (_, gates)) -> List.map gate_to_json gates)
               sections) );
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" path

(* `json-check FILE`: exit 0 iff FILE is a well-formed bench record and
   none of its gates failed. Each gate's status must agree with its
   value, op and bound (or be "skipped"), so a hand-edited verdict is
   caught too. *)
let json_check path =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s: %s\n" path msg;
        exit 1)
      fmt
  in
  let json =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> fail "%s" e
    | contents -> (
        match J.parse contents with
        | Ok json -> json
        | Error e -> fail "malformed JSON: %s" e)
  in
  (match Option.bind (J.member "schema" json) J.to_string_opt with
  | Some s when s = schema -> ()
  | Some other -> fail "unexpected schema %S" other
  | None -> fail "missing \"schema\" field");
  List.iter
    (fun key ->
      match J.member key json with
      | Some (J.Obj _) -> ()
      | _ -> fail "missing %S object" key)
    [ "run"; "experiments" ];
  let gates =
    match Option.bind (J.member "gates" json) J.to_list_opt with
    | Some gates -> gates
    | None -> fail "missing \"gates\" list"
  in
  let failed =
    List.filter_map
      (fun g ->
        let field key conv =
          match Option.bind (J.member key g) conv with
          | Some v -> v
          | None -> fail "gate without a valid %S: %s" key (J.to_string g)
        in
        let name = field "name" J.to_string_opt in
        let value = field "value" J.to_float_opt in
        let op = field "op" J.to_string_opt in
        let bound = field "bound" J.to_float_opt in
        let status = field "status" J.to_string_opt in
        if not (List.mem_assoc op ops) then fail "gate %s: unknown op %S" name op;
        let derived = (gate name value op bound).status in
        if status <> "skipped" && status <> derived then
          fail "gate %s: status %S, but %g %s %g is %S" name status value op
            bound derived;
        if status = "fail" then Some name else None)
      gates
  in
  match failed with
  | [] -> Printf.printf "%s: ok (%d gates)\n%!" path (List.length gates)
  | names -> fail "failed gates: %s" (String.concat ", " names)

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

(* the experiments that return a record section and gates *)
let bench_suites =
  [
    ("micro", run_micro_suite);
    ("e11", run_e11_fleet);
    ("e13", run_e13_dfz);
    ("e14", run_e14_health);
    ("e16", run_e16_flap);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "json-check"; path ] -> json_check path
  | _ ->
      let json_args, args = List.partition (String.starts_with ~prefix:"json=") args in
      let fast = List.mem "fast" args in
      let params =
        if fast then { E.default_params with E.cycle_s = 600 }
        else E.default_params
      in
      let ids =
        match List.filter (( <> ) "fast") args with
        | [] | [ "all" ] ->
            List.iter (run_one params) experiments;
            [ "micro" ]
        | ids -> ids
      in
      let sections =
        List.filter_map
          (fun id ->
            match
              ( List.assoc_opt id bench_suites,
                List.find_opt (fun (i, _, _) -> i = id) experiments )
            with
            | Some run, _ -> Some (id, run ~fast)
            | None, Some exp ->
                run_one params exp;
                None
            | None, None ->
                Printf.eprintf
                  "unknown experiment %S (known: %s, %s, all; modifiers: \
                   fast, json=FILE)\n"
                  id
                  (String.concat ", " (List.map (fun (i, _, _) -> i) experiments))
                  (String.concat ", " (List.map fst bench_suites));
                exit 1)
          ids
      in
      List.iter
        (fun (_, (_, gates)) -> List.iter print_gate gates)
        sections;
      List.iter
        (fun arg ->
          write_record (String.sub arg 5 (String.length arg - 5)) ~fast sections)
        json_args
