module Bgp = Ef_bgp
module Ef = Edge_fabric
module Table = Ef_stats.Table
module Cdf = Ef_stats.Cdf
module Scenario = Ef_netsim.Scenario
module Topo_gen = Ef_netsim.Topo_gen
module Pop = Ef_netsim.Pop
module Iface = Ef_netsim.Iface
module Peer = Bgp.Peer

type run_params = {
  cycle_s : int;
  duration_s : int;
  seed : int;
  jobs : int;
}

let default_params =
  { cycle_s = 120; duration_s = Ef_util.Units.seconds_per_day; seed = 11; jobs = 1 }

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)
let gbps x = Printf.sprintf "%.1f" (Ef_util.Units.to_gbps x)

(* ------------------------------------------------------------------ *)
(* Cached worlds and daily runs                                        *)
(* ------------------------------------------------------------------ *)

let world_cache : (string, Topo_gen.world) Hashtbl.t = Hashtbl.create 8
let run_cache : (string, Metrics.t) Hashtbl.t = Hashtbl.create 8

let clear_cache () =
  Hashtbl.reset world_cache;
  Hashtbl.reset run_cache

let world_of scenario =
  let key = scenario.Scenario.scenario_name in
  match Hashtbl.find_opt world_cache key with
  | Some w -> w
  | None ->
      let w = Topo_gen.generate scenario.Scenario.topo in
      Hashtbl.replace world_cache key w;
      w

let engine_config ~params ~controller ?(controller_config = Ef.Config.default)
    ?(measure = false) () =
  Engine.make_config ~cycle_s:params.cycle_s ~duration_s:params.duration_s
    ~controller_enabled:controller ~controller_config ~measure_altpaths:measure
    ~seed:params.seed ()

(* cache key: everything that determines a run's result — note [jobs] is
   deliberately absent, results are jobs-invariant *)
let run_key ~controller ~controller_config ~params scenario =
  let cfg_tag =
    match controller_config with
    | None -> "default"
    | Some c -> Format.asprintf "%a" Ef.Config.pp c
  in
  Printf.sprintf "%s/ctrl=%b/%d/%d/%d/%s" scenario.Scenario.scenario_name
    controller params.cycle_s params.duration_s params.seed cfg_tag

(* One way to fill the run cache, whatever [params.jobs]: each missing
   spec runs on a private registry (the shared one is unsafe across
   domains), [params.jobs] at a time, and results and telemetry are
   folded back on the calling domain in spec order — so cache contents
   and the default registry are independent of [jobs]. *)
let prewarm ~params specs =
  let seen = Hashtbl.create 8 in
  let missing =
    List.filter
      (fun (controller, controller_config, scenario) ->
        let key = run_key ~controller ~controller_config ~params scenario in
        if Hashtbl.mem run_cache key || Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      specs
  in
  Ef_util.Pool.map ~jobs:params.jobs
    (fun (controller, controller_config, scenario) ->
      let reg = Ef_obs.Registry.create () in
      let engine =
        Engine.create ~obs:reg
          ~config:(engine_config ~params ~controller ?controller_config ())
          scenario
      in
      let m = Engine.run engine in
      (run_key ~controller ~controller_config ~params scenario, m, reg))
    missing
  |> List.iter (fun (key, m, reg) ->
         Hashtbl.replace run_cache key m;
         Ef_obs.Registry.merge ~into:(Ef_obs.Registry.default ()) reg)

let daily_run ?(controller = true) ?controller_config ~params scenario =
  let key = run_key ~controller ~controller_config ~params scenario in
  if not (Hashtbl.mem run_cache key) then
    prewarm ~params [ (controller, controller_config, scenario) ];
  Hashtbl.find run_cache key

(* ------------------------------------------------------------------ *)
(* E1: peering characterization (Table 1)                              *)
(* ------------------------------------------------------------------ *)

(* traffic share whose preferred route uses each neighbor kind *)
let preferred_kind_shares world =
  let rib = Pop.rib world.Topo_gen.pop in
  let shares = Hashtbl.create 4 in
  let total = ref 0.0 in
  List.iter
    (fun prefix ->
      let w = world.Topo_gen.prefix_weight prefix in
      total := !total +. w;
      match Bgp.Rib.best rib prefix with
      | None -> ()
      | Some route ->
          let kind = Bgp.Route.peer_kind route in
          let prev = Option.value (Hashtbl.find_opt shares kind) ~default:0.0 in
          Hashtbl.replace shares kind (prev +. w))
    world.Topo_gen.all_prefixes;
  fun kind ->
    if !total <= 0.0 then 0.0
    else Option.value (Hashtbl.find_opt shares kind) ~default:0.0 /. !total

let e1_peering () =
  let table =
    Table.create
      [ "pop"; "kind"; "peers"; "ifaces"; "capacity(Gbps)"; "traffic-share" ]
  in
  List.iter
    (fun scenario ->
      let world = world_of scenario in
      let pop = world.Topo_gen.pop in
      let share_of = preferred_kind_shares world in
      List.iter
        (fun kind ->
          let peers =
            List.filter (fun p -> Peer.kind p = kind) (Pop.peers pop)
          in
          let iface_ids =
            List.sort_uniq compare
              (List.map
                 (fun p -> Iface.id (Pop.iface_of_peer pop ~peer_id:(Peer.id p)))
                 peers)
          in
          let capacity =
            List.fold_left
              (fun acc id ->
                match Pop.interface pop id with
                | None -> acc
                | Some i -> acc +. Iface.capacity_bps i)
              0.0 iface_ids
          in
          Table.add_row table
            [
              Pop.name pop;
              Peer.kind_to_string kind;
              string_of_int (List.length peers);
              string_of_int (List.length iface_ids);
              gbps capacity;
              pct (share_of kind);
            ])
        Peer.all_kinds)
    Scenario.paper_pops;
  table

(* ------------------------------------------------------------------ *)
(* E2: route diversity (Fig. 2)                                        *)
(* ------------------------------------------------------------------ *)

let e2_route_diversity () =
  let table =
    Table.create [ "pop"; ">=1 route"; ">=2 routes"; ">=3 routes"; ">=4 routes" ]
  in
  List.iter
    (fun scenario ->
      let world = world_of scenario in
      let rib = Pop.rib world.Topo_gen.pop in
      let total = ref 0.0 in
      let at_least = Array.make 5 0.0 in
      List.iter
        (fun prefix ->
          let w = world.Topo_gen.prefix_weight prefix in
          total := !total +. w;
          let n = List.length (Bgp.Rib.ranked rib prefix) in
          for k = 1 to min n 4 do
            at_least.(k) <- at_least.(k) +. w
          done)
        world.Topo_gen.all_prefixes;
      Table.add_row table
        (Pop.name world.Topo_gen.pop
        :: List.map
             (fun k -> pct (if !total > 0.0 then at_least.(k) /. !total else 0.0))
             [ 1; 2; 3; 4 ]))
    Scenario.paper_pops;
  table

(* ------------------------------------------------------------------ *)
(* E3: preference mix (Fig. 3)                                         *)
(* ------------------------------------------------------------------ *)

let e3_preference_mix () =
  let table =
    Table.create [ "pop"; "private"; "public"; "route-server"; "transit"; "peer-total" ]
  in
  List.iter
    (fun scenario ->
      let world = world_of scenario in
      let share_of = preferred_kind_shares world in
      let p = share_of Peer.Private_peer
      and pub = share_of Peer.Public_peer
      and rs = share_of Peer.Route_server
      and tr = share_of Peer.Transit in
      Table.add_row table
        [
          Pop.name world.Topo_gen.pop;
          pct p;
          pct pub;
          pct rs;
          pct tr;
          pct (p +. pub +. rs);
        ])
    Scenario.paper_pops;
  table

(* ------------------------------------------------------------------ *)
(* E4: BGP-only overload (Fig. 4)                                      *)
(* ------------------------------------------------------------------ *)

let e4_bgp_only_overload ?(params = default_params) () =
  let table =
    Table.create
      [
        "pop";
        "ifaces";
        "peak-util p50";
        "peak-util p90";
        "peak-util max";
        "ifaces>100%";
        "ifaces>95%";
        "overflow avg(Gbps)";
      ]
  in
  prewarm ~params
    (List.map (fun s -> (false, None, s)) Scenario.paper_pops);
  List.iter
    (fun scenario ->
      let metrics = daily_run ~controller:false ~params scenario in
      let peaks = Metrics.peak_utilization metrics `Preferred in
      let cdf = Cdf.of_samples (List.map snd peaks) in
      let dropped =
        Metrics.total_dropped metrics `Preferred
        /. float_of_int (max 1 (Metrics.cycle_count metrics))
        /. 1e9
      in
      Table.add_row table
        [
          scenario.Scenario.scenario_name;
          string_of_int (List.length peaks);
          Printf.sprintf "%.2f" (Cdf.quantile cdf 0.5);
          Printf.sprintf "%.2f" (Cdf.quantile cdf 0.9);
          Printf.sprintf "%.2f" (Cdf.max cdf);
          pct (Metrics.overloaded_iface_fraction metrics `Preferred ~threshold:1.0);
          pct (Metrics.overloaded_iface_fraction metrics `Preferred ~threshold:0.95);
          Printf.sprintf "%.1f" dropped;
        ])
    Scenario.paper_pops;
  table

(* ------------------------------------------------------------------ *)
(* E5: detour volume with the controller on (Fig. 7)                   *)
(* ------------------------------------------------------------------ *)

let e5_detour_volume ?(params = default_params) () =
  let table =
    Table.create
      [
        "pop";
        "mean detoured";
        "peak detoured";
        "peak-util max (EF)";
        "ifaces>100% (EF)";
        "overflow(Gbps) EF";
        "overflow(Gbps) BGP-only";
      ]
  in
  prewarm ~params
    (List.concat_map
       (fun s -> [ (true, None, s); (false, None, s) ])
       Scenario.paper_pops);
  List.iter
    (fun scenario ->
      let on = daily_run ~controller:true ~params scenario in
      let off = daily_run ~controller:false ~params scenario in
      let series = Metrics.detour_fraction_series on in
      let peak_frac = List.fold_left (fun acc (_, f) -> Float.max acc f) 0.0 series in
      let peaks = Metrics.peak_utilization on `Actual in
      let max_peak = List.fold_left (fun acc (_, u) -> Float.max acc u) 0.0 peaks in
      let to_gb m mode =
        Metrics.total_dropped m mode
        /. float_of_int (max 1 (Metrics.cycle_count m))
        /. 1e9
      in
      Table.add_row table
        [
          scenario.Scenario.scenario_name;
          pct (Metrics.mean_detour_fraction on);
          pct peak_frac;
          Printf.sprintf "%.2f" max_peak;
          pct (Metrics.overloaded_iface_fraction on `Actual ~threshold:1.0);
          Printf.sprintf "%.2f" (to_gb on `Actual);
          Printf.sprintf "%.2f" (to_gb off `Preferred);
        ])
    Scenario.paper_pops;
  table

(* ------------------------------------------------------------------ *)
(* E6: where detours land (Fig. 8)                                     *)
(* ------------------------------------------------------------------ *)

let e6_detour_levels ?(params = default_params) () =
  let table =
    Table.create [ "pop"; "2nd choice"; "3rd choice"; "4th choice"; "5th+" ]
  in
  prewarm ~params
    (List.map (fun s -> (true, None, s)) Scenario.paper_pops);
  List.iter
    (fun scenario ->
      let metrics = daily_run ~controller:true ~params scenario in
      let shares = Metrics.detour_level_shares metrics in
      let share level =
        Option.value
          (Option.map snd (List.find_opt (fun (l, _) -> l = level) shares))
          ~default:0.0
      in
      let rest =
        List.fold_left
          (fun acc (l, s) -> if l >= 4 then acc +. s else acc)
          0.0 shares
      in
      Table.add_row table
        [
          scenario.Scenario.scenario_name;
          pct (share 1);
          pct (share 2);
          pct (share 3);
          pct rest;
        ])
    Scenario.paper_pops;
  table

(* ------------------------------------------------------------------ *)
(* E7: override churn and the hysteresis ablation (Fig. 9, A2)         *)
(* ------------------------------------------------------------------ *)

let churn_params params =
  (* churn needs controller-period fidelity: 30 s cycles over 6 hours
     bracketing the evening peak *)
  { params with cycle_s = 30; duration_s = 6 * 3600 }

let e7_override_churn ?(params = default_params) () =
  let params = churn_params params in
  let table =
    Table.create
      [
        "pop";
        "variant";
        "life p50(s)";
        "life p90(s)";
        "adds/cycle";
        "removes/cycle";
        "active mean";
      ]
  in
  let no_hysteresis =
    Ef.Config.make ~min_hold_s:0 ~release_margin:0.0 ()
  in
  let scenario = Scenario.pop_a in
  let variants =
    [ ("damped", Ef.Config.default); ("no-hysteresis", no_hysteresis) ]
  in
  prewarm ~params
    (List.map (fun (_, cfg) -> (true, Some cfg, scenario)) variants);
  List.iter
    (fun (variant, controller_config) ->
      let metrics = daily_run ~controller:true ~controller_config ~params scenario in
      let rows = Metrics.rows metrics in
      let cycles = float_of_int (max 1 (List.length rows)) in
      let adds =
        List.fold_left (fun acc r -> acc + r.Metrics.overrides_added) 0 rows
      in
      let removes =
        List.fold_left (fun acc r -> acc + r.Metrics.overrides_removed) 0 rows
      in
      let active_mean =
        List.fold_left
          (fun acc r -> acc +. float_of_int r.Metrics.overrides_active)
          0.0 rows
        /. cycles
      in
      let p50, p90 =
        match Metrics.lifetime_cdf metrics with
        | None -> ("-", "-")
        | Some cdf ->
            ( Printf.sprintf "%.0f" (Cdf.quantile cdf 0.5),
              Printf.sprintf "%.0f" (Cdf.quantile cdf 0.9) )
      in
      Table.add_row table
        [
          scenario.Scenario.scenario_name;
          variant;
          p50;
          p90;
          Printf.sprintf "%.2f" (float_of_int adds /. cycles);
          Printf.sprintf "%.2f" (float_of_int removes /. cycles);
          Printf.sprintf "%.1f" active_mean;
        ])
    variants;
  table

(* ------------------------------------------------------------------ *)
(* E8: alternate-path quality (Fig. 10)                                *)
(* ------------------------------------------------------------------ *)

let e8_altpath_quality ?(params = default_params) () =
  let table =
    Table.create
      [
        "pop";
        "prefixes compared";
        "alt better(<-5ms)";
        "equivalent";
        "alt worse(>+5ms)";
        "delta p25(ms)";
        "delta p50(ms)";
        "delta p75(ms)";
      ]
  in
  let scenario = Scenario.pop_a in
  let config =
    {
      (engine_config
         ~params:{ params with cycle_s = 60; duration_s = 2 * 3600 }
         ~controller:true ~measure:true ())
      with
      Engine.use_sampling = false;
      start_s = 18 * 3600;
    }
  in
  let engine = Engine.create ~config scenario in
  ignore (Engine.run engine);
  (match Engine.measurer engine with
  | None -> ()
  | Some m ->
      let comparisons =
        Ef_altpath.Measurer.comparisons m (Engine.snapshot_now engine)
      in
      let deltas = List.map (fun c -> c.Ef_altpath.Path_store.delta_ms) comparisons in
      match deltas with
      | [] -> Table.add_row table [ scenario.Scenario.scenario_name; "0" ]
      | _ ->
          let cdf = Cdf.of_samples deltas in
          let n = List.length deltas in
          let frac pred =
            float_of_int (List.length (List.filter pred deltas)) /. float_of_int n
          in
          Table.add_row table
            [
              scenario.Scenario.scenario_name;
              string_of_int n;
              pct (frac (fun d -> d < -5.0));
              pct (frac (fun d -> Float.abs d <= 5.0));
              pct (frac (fun d -> d > 5.0));
              Printf.sprintf "%.1f" (Cdf.quantile cdf 0.25);
              Printf.sprintf "%.1f" (Cdf.quantile cdf 0.5);
              Printf.sprintf "%.1f" (Cdf.quantile cdf 0.75);
            ]);
  table

(* ------------------------------------------------------------------ *)
(* E9: RTT impact on detoured prefixes (§6)                            *)
(* ------------------------------------------------------------------ *)

let e9_detour_rtt_impact ?(params = default_params) () =
  let table =
    Table.create
      [
        "pop";
        "detour samples";
        "improved";
        "within 5ms";
        "hurt >5ms";
        "delta p50(ms)";
        "delta p90(ms)";
      ]
  in
  let scenario = Scenario.pop_a in
  let config =
    {
      (engine_config
         ~params:{ params with cycle_s = 60; duration_s = 4 * 3600 }
         ~controller:true ())
      with
      Engine.start_s = 18 * 3600;
    }
  in
  let engine = Engine.create ~config scenario in
  let deltas = ref [] in
  let steps = 4 * 3600 / 60 in
  for _ = 1 to steps do
    ignore (Engine.step engine);
    match Engine.last_state engine with
    | None -> ()
    | Some st ->
        let latency = Engine.latency engine in
        let util_of proj iface_id =
          match
            List.find_opt
              (fun i -> Iface.id i = iface_id)
              (Ef.Projection.ifaces proj)
          with
          | None -> 0.0
          | Some iface -> Ef.Projection.utilization proj iface
        in
        List.iter
          (fun pl ->
            if pl.Ef.Projection.overridden then begin
              let prefix = pl.Ef.Projection.placed_prefix in
              let actual_rtt =
                Ef_netsim.Latency.rtt_ms latency prefix pl.Ef.Projection.route
                  ~utilization:
                    (util_of st.Engine.actual pl.Ef.Projection.iface_id)
              in
              match Ef.Projection.placement_of st.Engine.preferred prefix with
              | None -> ()
              | Some ppl ->
                  let pref_rtt =
                    Ef_netsim.Latency.rtt_ms latency prefix
                      ppl.Ef.Projection.route
                      ~utilization:
                        (util_of st.Engine.preferred ppl.Ef.Projection.iface_id)
                  in
                  deltas := (actual_rtt -. pref_rtt) :: !deltas
            end)
          (Ef.Projection.placements st.Engine.actual)
  done;
  (match !deltas with
  | [] -> Table.add_row table [ scenario.Scenario.scenario_name; "0" ]
  | ds ->
      let cdf = Cdf.of_samples ds in
      let n = List.length ds in
      let frac pred =
        float_of_int (List.length (List.filter pred ds)) /. float_of_int n
      in
      Table.add_row table
        [
          scenario.Scenario.scenario_name;
          string_of_int n;
          pct (frac (fun d -> d < -5.0));
          pct (frac (fun d -> Float.abs d <= 5.0));
          pct (frac (fun d -> d > 5.0));
          Printf.sprintf "%.1f" (Cdf.quantile cdf 0.5);
          Printf.sprintf "%.1f" (Cdf.quantile cdf 0.9);
        ]);
  table

(* ------------------------------------------------------------------ *)
(* E12: performance-aware routing (§7 extension)                       *)
(* ------------------------------------------------------------------ *)

let e12_perf_aware ?(params = default_params) () =
  let table =
    Table.create
      [
        "pop";
        "variant";
        "weighted RTT (ms)";
        "vs BGP-only (ms)";
        "perf overrides";
        "detoured";
      ]
  in
  let scenario = Scenario.pop_a in
  let run perf =
    let config =
      {
        (engine_config ~params:{ params with cycle_s = 60; duration_s = 2 * 3600 }
           ~controller:true ~measure:true ())
        with
        Engine.start_s = 18 * 3600;
        use_sampling = false;
        perf_aware = perf;
      }
    in
    let engine = Engine.create ~config scenario in
    Engine.run engine
  in
  List.iter
    (fun (variant, perf) ->
      let metrics = run perf in
      let rows = Metrics.rows metrics in
      let n = float_of_int (max 1 (List.length rows)) in
      let mean f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows /. n in
      let rtt = mean (fun r -> r.Metrics.weighted_rtt_ms) in
      let rtt_pref = mean (fun r -> r.Metrics.weighted_rtt_preferred_ms) in
      let perf_n = mean (fun r -> float_of_int r.Metrics.perf_overrides_active) in
      Table.add_row table
        [
          scenario.Scenario.scenario_name;
          variant;
          Printf.sprintf "%.1f" rtt;
          Printf.sprintf "%+.1f" (rtt -. rtt_pref);
          Printf.sprintf "%.0f" perf_n;
          pct (Metrics.mean_detour_fraction metrics);
        ])
    [ ("capacity-only", false); ("perf-aware", true) ];
  table

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* A stressed controller input: the 20:00 snapshot with demand scaled up,
   so several interfaces overload at once and detours contend for the
   same alternates — the regime where allocator design choices diverge. *)
let stressed_snapshot ?(scale = 1.5) ~params scenario =
  let engine =
    Engine.create
      ~config:
        {
          (engine_config ~params ~controller:false ()) with
          Engine.start_s = 20 * 3600;
          use_sampling = false;
        }
      scenario
  in
  ignore (Engine.step engine);
  let snap = Engine.snapshot_now engine in
  let rates =
    List.map (fun (p, r) -> (p, r *. scale)) (Ef_collector.Snapshot.prefix_rates snap)
  in
  Ef_collector.Snapshot.of_pop
    (Engine.world engine).Topo_gen.pop ~prefix_rates:rates
    ~time_s:(Ef_collector.Snapshot.time_s snap)

(* A1: does skipping re-projection overload detour targets? Measured on
   stressed peak snapshots: run the allocator both ways on the same input. *)
let a1_single_pass ?(params = default_params) () =
  let table =
    Table.create
      [
        "pop";
        "variant";
        "overrides";
        "targets pushed >threshold";
        "max target util";
      ]
  in
  List.iter
    (fun scenario ->
      (* 3x peak: even transit headroom becomes contended, which is when
         deciding against stale loads (single-pass) piles detours onto
         the same target *)
      let snapshot = stressed_snapshot ~scale:3.0 ~params scenario in
      List.iter
        (fun (variant, iterative) ->
          let config = Ef.Config.make ~iterative () in
          let result = Ef.Allocator.run ~config snapshot in
          let threshold = Ef.Config.default.Ef.Config.overload_threshold in
          let pushed, max_util =
            List.fold_left
              (fun (pushed, max_util) iface ->
                let before_u = Ef.Projection.utilization result.Ef.Allocator.before iface in
                let after_u = Ef.Projection.utilization result.Ef.Allocator.final iface in
                ( (if before_u <= threshold && after_u > threshold then pushed + 1
                   else pushed),
                  if after_u > max_util then after_u else max_util ))
              (0, 0.0)
              (Ef.Projection.ifaces result.Ef.Allocator.final)
          in
          Table.add_row table
            [
              scenario.Scenario.scenario_name;
              variant;
              string_of_int (List.length result.Ef.Allocator.overrides);
              string_of_int pushed;
              Printf.sprintf "%.2f" max_util;
            ])
        [ ("iterative", true); ("single-pass", false) ])
    Scenario.paper_pops;
  table

let a3_threshold_sweep ?(params = default_params) () =
  (* five full-day runs: keep the sweep affordable with coarser cycles *)
  let params = { params with cycle_s = max params.cycle_s 300 } in
  let table =
    Table.create
      [ "threshold"; "mean detoured"; "peak-util max"; "ifaces>100%"; "overflow(Gbps)" ]
  in
  let scenario = Scenario.pop_a in
  let thresholds = [ 0.80; 0.85; 0.90; 0.95; 0.99 ] in
  prewarm ~params
    (List.map
       (fun th -> (true, Some (Ef.Config.make ~overload_threshold:th ()), scenario))
       thresholds);
  List.iter
    (fun threshold ->
      let controller_config =
        Ef.Config.make ~overload_threshold:threshold ()
      in
      let metrics = daily_run ~controller:true ~controller_config ~params scenario in
      let peaks = Metrics.peak_utilization metrics `Actual in
      let max_peak = List.fold_left (fun acc (_, u) -> Float.max acc u) 0.0 peaks in
      Table.add_row table
        [
          Printf.sprintf "%.2f" threshold;
          pct (Metrics.mean_detour_fraction metrics);
          Printf.sprintf "%.2f" max_peak;
          pct (Metrics.overloaded_iface_fraction metrics `Actual ~threshold:1.0);
          Printf.sprintf "%.2f"
            (Metrics.total_dropped metrics `Actual
            /. float_of_int (max 1 (Metrics.cycle_count metrics))
            /. 1e9);
        ])
    thresholds;
  table

let a4_granularity ?(params = default_params) () =
  let table =
    Table.create
      [
        "demand scale";
        "granularity";
        "overrides";
        "splits";
        "residual overloads";
        "max util";
      ]
  in
  (* sweep demand on the tightest PoP: at low stress whole prefixes
     always fit (no splits); just under capacity exhaustion, whole
     prefixes strand headroom that /24 children can still use; beyond
     total capacity neither can win *)
  let scenario = Scenario.pop_d in
  List.iter
    (fun scale ->
      let snapshot = stressed_snapshot ~scale ~params scenario in
      List.iter
        (fun (variant, granularity) ->
          let config = Ef.Config.make ~granularity () in
          let result = Ef.Allocator.run ~config snapshot in
          let max_util =
            List.fold_left
              (fun acc iface ->
                Float.max acc (Ef.Projection.utilization result.Ef.Allocator.final iface))
              0.0
              (Ef.Projection.ifaces result.Ef.Allocator.final)
          in
          Table.add_row table
            [
              Printf.sprintf "%.1fx" scale;
              variant;
              string_of_int (List.length result.Ef.Allocator.overrides);
              string_of_int result.Ef.Allocator.splits;
              string_of_int (List.length result.Ef.Allocator.residual);
              Printf.sprintf "%.2f" max_util;
            ])
        [ ("bgp-prefix", Ef.Config.Bgp_prefix); ("split-24", Ef.Config.Split_24) ])
    [ 3.0; 4.5; 5.0; 5.5; 6.0 ];
  (* fragmentation microcosm: one 11G prefix on a 10G port whose only
     alternates have 9.5G of headroom each — a whole-prefix move fits
     nowhere, /24 children spread across both alternates *)
  let micro_snapshot () =
    let pop =
      Pop.create ~name:"frag" ~region:Ef_netsim.Region.Na_east
        ~asn:(Bgp.Asn.of_int 64500) ()
    in
    let policy =
      Ef_policy.standard_import_map ~self_asn:(Bgp.Asn.of_int 64500)
    in
    let pni = Pop.add_interface pop ~name:"pni" ~capacity_bps:10e9 ~shared:false in
    let ixp = Pop.add_interface pop ~name:"ixp" ~capacity_bps:10e9 ~shared:true in
    let tr = Pop.add_interface pop ~name:"transit" ~capacity_bps:10e9 ~shared:false in
    let mk id name kind asn =
      Bgp.Peer.make ~id ~name ~asn:(Bgp.Asn.of_int asn) ~kind
        ~router_id:(Bgp.Ipv4.of_octets 10 0 0 id)
        ~session_addr:(Bgp.Ipv4.of_octets 172 16 0 id)
    in
    let p0 = mk 0 "pni" Bgp.Peer.Private_peer 100 in
    let p1 = mk 1 "ixp" Bgp.Peer.Public_peer 200 in
    let p2 = mk 2 "tr" Bgp.Peer.Transit 10 in
    Pop.add_peer pop p0 ~iface:pni ~policy;
    Pop.add_peer pop p1 ~iface:ixp ~policy;
    Pop.add_peer pop p2 ~iface:tr ~policy;
    let big = Bgp.Prefix.v "10.1.0.0/16" in
    let announce peer_id path =
      ignore
        (Pop.announce pop ~peer_id big
           (Bgp.Attrs.make
              ~as_path:(Bgp.As_path.of_list (List.map Bgp.Asn.of_int path))
              ~next_hop:(Bgp.Ipv4.of_octets 172 16 0 peer_id)
              ()))
    in
    announce 0 [ 100 ];
    announce 1 [ 200; 100 ];
    announce 2 [ 10; 100 ];
    Ef_collector.Snapshot.of_pop pop ~prefix_rates:[ (big, 11e9) ] ~time_s:0
  in
  List.iter
    (fun (variant, granularity) ->
      let config = Ef.Config.make ~granularity () in
      let result = Ef.Allocator.run ~config (micro_snapshot ()) in
      let max_util =
        List.fold_left
          (fun acc iface ->
            Float.max acc (Ef.Projection.utilization result.Ef.Allocator.final iface))
          0.0
          (Ef.Projection.ifaces result.Ef.Allocator.final)
      in
      Table.add_row table
        [
          "microcosm";
          variant;
          string_of_int (List.length result.Ef.Allocator.overrides);
          string_of_int result.Ef.Allocator.splits;
          string_of_int (List.length result.Ef.Allocator.residual);
          Printf.sprintf "%.2f" max_util;
        ])
    [ ("bgp-prefix", Ef.Config.Bgp_prefix); ("split-24", Ef.Config.Split_24) ];
  table

(* ------------------------------------------------------------------ *)

let run_all ?(params = default_params) () =
  let section id title table =
    Printf.printf "== %s: %s ==\n" id title;
    Table.print table
  in
  section "E1" "peering characterization (Table 1)" (e1_peering ());
  section "E2" "route diversity, traffic-weighted (Fig. 2)" (e2_route_diversity ());
  section "E3" "BGP preference mix (Fig. 3)" (e3_preference_mix ());
  section "E4" "projected overload under BGP alone (Fig. 4)"
    (e4_bgp_only_overload ~params ());
  section "E5" "detour volume with Edge Fabric (Fig. 7)"
    (e5_detour_volume ~params ());
  section "E6" "detour placement by preference level (Fig. 8)"
    (e6_detour_levels ~params ());
  section "E7" "override churn and hysteresis ablation (Fig. 9, A2)"
    (e7_override_churn ~params ());
  section "E8" "alternate-path RTT quality (Fig. 10)"
    (e8_altpath_quality ~params ());
  section "E9" "RTT impact of detours at peak (§6)"
    (e9_detour_rtt_impact ~params ());
  section "E12" "performance-aware routing extension (§7)"
    (e12_perf_aware ~params ());
  section "A1" "iterative vs single-pass allocator" (a1_single_pass ~params ());
  section "A3" "overload threshold sweep" (a3_threshold_sweep ~params ());
  section "A4" "detour granularity" (a4_granularity ~params ())
