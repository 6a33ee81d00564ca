module Bgp = Ef_bgp
module Ef = Edge_fabric
module Obs = Ef_obs
module Snapshot = Ef_collector.Snapshot
open Ef_util

type config = {
  cycle_s : int;
  duration_s : int;
  start_s : int;
  controller_enabled : bool;
  controller_config : Ef.Config.t;
  use_sampling : bool;
  measure_altpaths : bool;
  perf_aware : bool;
  policy : Ef_policy.program option;
  seed : int;
  events : Ef_traffic.Demand.event list;
  faults : Ef_fault.Plan.t option;
}

let default_config =
  {
    cycle_s = 30;
    duration_s = Units.seconds_per_day;
    start_s = 0;
    controller_enabled = true;
    controller_config = Ef.Config.default;
    use_sampling = true;
    measure_altpaths = false;
    perf_aware = false;
    policy = None;
    seed = 1;
    events = [];
    faults = None;
  }

let make_config ?(cycle_s = default_config.cycle_s)
    ?(duration_s = default_config.duration_s) ?(start_s = default_config.start_s)
    ?(controller_enabled = default_config.controller_enabled)
    ?(controller_config = default_config.controller_config)
    ?(use_sampling = default_config.use_sampling)
    ?(measure_altpaths = default_config.measure_altpaths)
    ?(perf_aware = default_config.perf_aware) ?policy
    ?(seed = default_config.seed) ?(events = default_config.events) ?faults () =
  {
    cycle_s;
    duration_s;
    start_s;
    controller_enabled;
    controller_config;
    use_sampling;
    measure_altpaths;
    perf_aware;
    policy;
    seed;
    events;
    faults;
  }

type placement_state = {
  actual : Ef.Projection.t;
  preferred : Ef.Projection.t;
  active_overrides : Ef.Override.t list;
}

(* resolved once per engine, same pattern as the controller's handles *)
type obs_handles = {
  reg : Obs.Registry.t;
  sp_step : Obs.Histogram.t;
  sp_demand : Obs.Histogram.t;
  sp_estimate : Obs.Histogram.t;
  sp_controller : Obs.Histogram.t;
  sp_placement : Obs.Histogram.t;
  sp_accounting : Obs.Histogram.t;
  c_steps : Obs.Counter.t;
  c_cycles_skipped : Obs.Counter.t;
  c_sess_failures : Obs.Counter.t;
  c_sess_retries : Obs.Counter.t;
  c_sess_reconnects : Obs.Counter.t;
  g_offered : Obs.Gauge.t;
  g_detoured : Obs.Gauge.t;
  g_dropped : Obs.Gauge.t;
}

let obs_handles reg =
  {
    reg;
    sp_step = Obs.Registry.span reg "engine.step";
    sp_demand = Obs.Registry.span reg "engine.demand";
    sp_estimate = Obs.Registry.span reg "engine.estimate";
    sp_controller = Obs.Registry.span reg "engine.controller";
    sp_placement = Obs.Registry.span reg "engine.placement";
    sp_accounting = Obs.Registry.span reg "engine.accounting";
    c_steps = Obs.Registry.counter reg "engine.steps";
    c_cycles_skipped = Obs.Registry.counter reg "engine.cycles_skipped";
    c_sess_failures = Obs.Registry.counter reg "collector.session.failures";
    c_sess_retries = Obs.Registry.counter reg "collector.session.retries";
    c_sess_reconnects = Obs.Registry.counter reg "collector.session.reconnects";
    g_offered = Obs.Registry.gauge reg "engine.offered_bps";
    g_detoured = Obs.Registry.gauge reg "engine.detoured_bps";
    g_dropped = Obs.Registry.gauge reg "engine.dropped_bps";
  }

type t = {
  config : config;
  perf_config : Ef_altpath.Perf_policy.config;
  world : Ef_netsim.Topo_gen.world;
  demand : Ef_traffic.Demand.t;
  latency : Ef_netsim.Latency.t;
  controller : Ef.Controller.t option;
  estimator : Ef_traffic.Rate_est.t;
  measurer : Ef_altpath.Measurer.t option;
  metrics : Metrics.t;
  obs : obs_handles;
  trace : Ef_trace.Recorder.t;
  health : Ef_health.Tracker.t;
  rng : Rng.t;
  mutable now : int;
  mutable last_state : placement_state option;
  (* fault-plan injection (Ef_fault): the full pre-outage table of each
     peer on a downed link, and which peers are currently down *)
  injector : Ef_fault.Injector.t option;
  flap_saved : (int, (Bgp.Prefix.t * Bgp.Attrs.t) list) Hashtbl.t;
  mutable flapped_down : int list;
  mutable last_ctl_snapshot : Snapshot.t option;
  bmp_session : Ef_collector.Retry.t;
  mutable cycles_skipped : int;
}

(* the knob half of a compiled program (the route-map half was applied at
   world generation): its allocator-side denotation merged into the run's
   controller configuration, and its perf-side denotation *)
let apply_policy_params env policy config =
  let ap = Ef_policy.alloc_params env policy in
  let ctl = config.controller_config in
  let ctl =
    match ap.Ef_policy.ap_overload_threshold with
    | None -> ctl
    | Some overload_threshold -> { ctl with Ef.Config.overload_threshold }
  in
  let ctl =
    match ap.Ef_policy.ap_iface_thresholds with
    | [] -> ctl
    | iface_thresholds -> { ctl with Ef.Config.iface_thresholds }
  in
  let guard = ctl.Ef.Config.guard in
  let guard =
    match ap.Ef_policy.ap_detour_budget with
    | None -> guard
    | Some v -> { guard with Ef.Guard.max_detour_fraction = Some v }
  in
  let guard =
    match ap.Ef_policy.ap_max_overrides with
    | None -> guard
    | Some v -> { guard with Ef.Guard.max_overrides = Some v }
  in
  ( { config with controller_config = { ctl with Ef.Config.guard } },
    Ef_altpath.Perf_policy.config_of_policy env policy )

let create ?(config = default_config) ?obs ?(trace = Ef_trace.Recorder.noop)
    ?(health = Ef_health.Tracker.noop) scenario =
  if config.cycle_s < 1 then invalid_arg "Engine.create: cycle_s must be positive";
  if config.duration_s < 0 then
    invalid_arg "Engine.create: duration_s must be non-negative";
  let reg = match obs with Some r -> r | None -> Obs.Registry.default () in
  (* a policy given in the engine config wins over the scenario's own
     declaration; either way the world is generated under the compiled
     route-map and the knob side lands on this run's configs *)
  let topo =
    match config.policy with
    | None -> scenario.Ef_netsim.Scenario.topo
    | Some p ->
        {
          scenario.Ef_netsim.Scenario.topo with
          Ef_netsim.Topo_gen.import_policy = Some p.Ef_policy.program_policy;
        }
  in
  let world = Ef_netsim.Topo_gen.generate topo in
  let config, perf_config =
    match topo.Ef_netsim.Topo_gen.import_policy with
    | None -> (config, Ef_altpath.Perf_policy.default_config)
    | Some pol ->
        apply_policy_params (Ef_netsim.Topo_gen.policy_env world) pol config
  in
  let demand =
    Ef_traffic.Demand.create ~events:config.events
      ~prefix_weight:world.Ef_netsim.Topo_gen.prefix_weight
      ~origin_region:world.Ef_netsim.Topo_gen.origin_region
      ~total_peak_bps:world.Ef_netsim.Topo_gen.total_peak_bps
      ~seed:(config.seed * 7919) ()
  in
  let latency =
    Ef_netsim.Latency.create
      ~pop_region:(Ef_netsim.Pop.region world.Ef_netsim.Topo_gen.pop)
      ~origin_region:world.Ef_netsim.Topo_gen.origin_region
      ~seed:(config.seed * 104729)
  in
  {
    config;
    perf_config;
    world;
    demand;
    latency;
    controller =
      (if config.controller_enabled then
         Some
           (Ef.Controller.create ~config:config.controller_config ~obs:reg
              ~trace
              ~name:(Ef_netsim.Pop.name world.Ef_netsim.Topo_gen.pop)
              ())
       else None);
    estimator = Ef_traffic.Rate_est.create Ef_traffic.Sflow.default_config;
    measurer =
      (if config.measure_altpaths then
         Some (Ef_altpath.Measurer.create ~seed:(config.seed * 31))
       else None);
    metrics = Metrics.create ();
    obs = obs_handles reg;
    trace;
    health;
    rng = Rng.create (config.seed * 131);
    now = config.start_s;
    last_state = None;
    injector = Option.map Ef_fault.Injector.create config.faults;
    flap_saved = Hashtbl.create 8;
    flapped_down = [];
    last_ctl_snapshot = None;
    bmp_session = Ef_collector.Retry.create ();
    cycles_skipped = 0;
  }

let config t = t.config
let world t = t.world
let metrics t = t.metrics
let obs t = t.obs.reg
let demand t = t.demand
let latency t = t.latency
let measurer t = t.measurer
let controller t = t.controller
let now_s t = t.now
let last_state t = t.last_state
let injector t = t.injector
let bmp_session t = t.bmp_session
let cycles_skipped t = t.cycles_skipped

(* [None] is a controller round an injected fault skipped *)
let count f = function None -> 0 | Some stats -> List.length (f stats)

(* the one place a controller round becomes a tracker input *)
let observe_health health ~time_s ~duration_s ~stale stats =
  if Ef_health.Tracker.enabled health then
    ignore
      (Ef_health.Tracker.observe_cycle health
         {
           Ef_health.Tracker.time_s;
           duration_s;
           degraded = Option.bind stats Ef.Controller.degraded <> None;
           skipped = stats = None;
           stale;
           violations = count Ef.Controller.guard_violations stats;
           residual = count Ef.Controller.residual_overloads stats;
         })

(* take flapping links up and down: a downed link drops every session on
   it (routes flushed, as a session loss does); when the outage window
   ends the sessions return and re-announce their saved tables *)
let apply_link_faults t ~time_s =
  match t.injector with
  | None -> ()
  | Some inj ->
      let pop = t.world.Ef_netsim.Topo_gen.pop in
      List.iter
        (fun iface ->
          let iface_id = Ef_netsim.Iface.id iface in
          let down = Ef_fault.Injector.link_down inj ~iface_id ~time_s in
          List.iter
            (fun peer ->
              let pid = Bgp.Peer.id peer in
              let is_down = List.mem pid t.flapped_down in
              if down && not is_down then begin
                if not (Hashtbl.mem t.flap_saved pid) then
                  Hashtbl.replace t.flap_saved pid
                    (Bgp.Rib.adj_rib_in (Ef_netsim.Pop.rib pop) ~peer_id:pid);
                ignore (Ef_netsim.Pop.drop_peer pop ~peer_id:pid);
                t.flapped_down <- pid :: t.flapped_down
              end
              else if (not down) && is_down then begin
                List.iter
                  (fun (prefix, attrs) ->
                    ignore (Ef_netsim.Pop.announce pop ~peer_id:pid prefix attrs))
                  (Option.value (Hashtbl.find_opt t.flap_saved pid) ~default:[]);
                Hashtbl.remove t.flap_saved pid;
                t.flapped_down <- List.filter (fun id -> id <> pid) t.flapped_down
              end)
            (Ef_netsim.Pop.peers_on_iface pop ~iface_id))
        (Ef_netsim.Pop.interfaces pop)

(* interface list as SNMP would report it under the active faults: a
   downed link stays listed, derated to 1 bps (its sessions are flushed
   by apply_link_faults) *)
let eff_ifaces t ~time_s =
  let ifaces = Ef_netsim.Pop.interfaces t.world.Ef_netsim.Topo_gen.pop in
  match t.injector with
  | None -> ifaces
  | Some inj ->
      List.map
        (fun iface ->
          Ef_netsim.Iface.derate iface
            ~factor:
              (Ef_fault.Injector.capacity_factor inj
                 ~iface_id:(Ef_netsim.Iface.id iface) ~time_s))
        ifaces

let rate_floor = 1_000.0 (* ignore demand under 1 kbps *)

let true_rates t ~time_s =
  List.filter_map
    (fun prefix ->
      let rate = Ef_traffic.Demand.rate_bps t.demand prefix ~time_s in
      if rate > rate_floor then Some (prefix, rate) else None)
    t.world.Ef_netsim.Topo_gen.all_prefixes

let estimated_rates t ~truth ~time_s =
  if not t.config.use_sampling then truth
  else begin
    let drop, burst =
      match t.injector with
      | None -> (0.0, 1.0)
      | Some inj ->
          ( Ef_fault.Injector.sflow_drop_fraction inj ~time_s,
            Ef_fault.Injector.sflow_burst_multiplier inj ~time_s )
    in
    let samples =
      List.map
        (fun (prefix, rate) ->
          Ef_traffic.Sflow.sample_rate Ef_traffic.Sflow.default_config t.rng
            ~prefix
            ~rate_bps:(rate *. burst))
        truth
    in
    (* sample loss draws from the injector's own rng, after the workload
       sampling above — fault randomness never shifts the workload stream *)
    let samples =
      match t.injector with
      | Some inj when drop > 0.0 ->
          let frng = Ef_fault.Injector.rng inj in
          List.filter (fun _ -> Rng.float frng 1.0 >= drop) samples
      | _ -> samples
    in
    Ef_traffic.Rate_est.observe t.estimator samples;
    Ef_traffic.Rate_est.tick_absent t.estimator;
    Ef_traffic.Rate_est.drop_below t.estimator (rate_floor /. 10.0);
    Ef_traffic.Rate_est.snapshot t.estimator
    |> List.filter (fun (_, r) -> r > rate_floor)
  end

let snapshot_of_rates ?ifaces t rates ~time_s =
  Snapshot.of_pop ~obs:t.obs.reg ?ifaces t.world.Ef_netsim.Topo_gen.pop
    ~prefix_rates:rates ~time_s

let snapshot_now t =
  let time_s = t.now in
  let truth = true_rates t ~time_s in
  snapshot_of_rates ~ifaces:(eff_ifaces t ~time_s) t
    (estimated_rates t ~truth ~time_s)
    ~time_s

let iface_stats ~ifaces ~actual ~preferred =
  List.map
    (fun iface ->
      let id = Ef_netsim.Iface.id iface in
      {
        Metrics.u_iface_id = id;
        capacity_bps = Ef_netsim.Iface.capacity_bps iface;
        actual_bps = Ef.Projection.load_bps actual ~iface_id:id;
        preferred_bps = Ef.Projection.load_bps preferred ~iface_id:id;
      })
    ifaces

let dropped_bps proj ifaces =
  List.fold_left
    (fun acc iface ->
      let load =
        Ef.Projection.load_bps proj ~iface_id:(Ef_netsim.Iface.id iface)
      in
      acc +. Float.max 0.0 (load -. Ef_netsim.Iface.capacity_bps iface))
    0.0 ifaces

(* every interface's utilization under [proj], indexed by its (dense)
   id; read with [util_at], which gives 0 for an id not in [ifaces] *)
let utilizations proj ifaces =
  let n =
    List.fold_left (fun n i -> max n (Ef_netsim.Iface.id i + 1)) 0 ifaces
  in
  let util = Array.make n 0.0 in
  List.iter
    (fun i -> util.(Ef_netsim.Iface.id i) <- Ef.Projection.utilization proj i)
    ifaces;
  util

let util_at util iface_id =
  if iface_id >= 0 && iface_id < Array.length util then util.(iface_id)
  else 0.0

(* traffic-weighted mean RTT of a placement, with congestion; [util] is
   [utilizations proj] *)
let weighted_rtt t proj ~util =
  let total, weighted =
    List.fold_left
      (fun (total, weighted) pl ->
        let rtt =
          Ef_netsim.Latency.rtt_ms t.latency pl.Ef.Projection.placed_prefix
            pl.Ef.Projection.route
            ~utilization:(util_at util pl.Ef.Projection.iface_id)
        in
        ( total +. pl.Ef.Projection.rate_bps,
          weighted +. (pl.Ef.Projection.rate_bps *. rtt) ))
      (0.0, 0.0) (Ef.Projection.placements proj)
  in
  if total <= 0.0 then 0.0 else weighted /. total

let detour_levels active_overrides actual =
  let level_of = Ef.Override.level_of active_overrides in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun pl ->
      if pl.Ef.Projection.overridden then
        match level_of pl.Ef.Projection.placed_prefix with
        | None -> ()
        | Some level ->
            let prev = Option.value (Hashtbl.find_opt tbl level) ~default:0.0 in
            Hashtbl.replace tbl level (prev +. pl.Ef.Projection.rate_bps))
    (Ef.Projection.placements actual);
  Hashtbl.fold (fun level bps acc -> (level, bps) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let step t =
  let ob = t.obs in
  Obs.Span.time_h ob.reg ob.sp_step @@ fun () ->
  let time_s = t.now in
  apply_link_faults t ~time_s;
  let fault_ifaces = eff_ifaces t ~time_s in
  let truth =
    Obs.Span.time_h ob.reg ob.sp_demand (fun () -> true_rates t ~time_s)
  in
  let est =
    Obs.Span.time_h ob.reg ob.sp_estimate (fun () ->
        estimated_rates t ~truth ~time_s)
  in
  (* collector feed faults: a BMP stall freezes the controller's view at
     the last snapshot assembled before the stall (its timestamp included,
     so snapshot age accumulates and the controller's staleness guard can
     fire); the session retry machine backs off against the stall *)
  let stalled, skipped, delay_s =
    match t.injector with
    | None -> (false, false, 0)
    | Some inj ->
        ( Ef_fault.Injector.bmp_stalled inj ~time_s,
          Ef_fault.Injector.cycle_skipped inj ~time_s,
          Ef_fault.Injector.cycle_delay_s inj ~time_s )
  in
  let fresh_snapshot = snapshot_of_rates ~ifaces:fault_ifaces t est ~time_s in
  let ctl_snapshot =
    if stalled then Option.value t.last_ctl_snapshot ~default:fresh_snapshot
    else begin
      t.last_ctl_snapshot <- Some fresh_snapshot;
      fresh_snapshot
    end
  in
  if stalled then begin
    if Ef_collector.Retry.healthy t.bmp_session then begin
      Ef_collector.Retry.on_failure t.bmp_session ~time_s;
      Obs.Counter.inc ob.c_sess_failures
    end
    else if Ef_collector.Retry.should_retry t.bmp_session ~time_s then begin
      Obs.Counter.inc ob.c_sess_retries;
      Ef_collector.Retry.on_failure t.bmp_session ~time_s;
      Obs.Counter.inc ob.c_sess_failures
    end
  end
  else if not (Ef_collector.Retry.healthy t.bmp_session) then begin
    Ef_collector.Retry.on_success t.bmp_session;
    Obs.Counter.inc ob.c_sess_reconnects
  end;

  (* controller round — a skipped cycle holds the installed override set
     untouched; a delayed cycle runs against a view [delay_s] old *)
  let ctl_t0 = Obs.Clock.now_ns () in
  let active, stats =
    Obs.Span.time_h ob.reg ob.sp_controller @@ fun () ->
    match t.controller with
    | None -> ([], None)
    | Some ctrl when skipped ->
        t.cycles_skipped <- t.cycles_skipped + 1;
        Obs.Counter.inc ob.c_cycles_skipped;
        (Ef.Controller.active_overrides ctrl, None)
    | Some ctrl ->
        let now_s = time_s + delay_s in
        let stats = Ef.Controller.cycle ~now_s ctrl ctl_snapshot in
        Metrics.record_removals t.metrics
          (List.map
             (fun (o, age) ->
               { Metrics.removed_prefix = o.Ef.Override.prefix; lifetime_s = age })
             (Ef.Controller.overrides_removed stats));
        (Ef.Controller.overrides_enforced stats, Some stats)
  in
  (* health tracking: one observation per controller round, fed with the
     round's wall time and the deterministic impairment signals *)
  if t.controller <> None then
    observe_health t.health ~time_s ~duration_s:(Obs.Clock.elapsed_s ctl_t0)
      ~stale:(not (Ef_collector.Retry.healthy t.bmp_session))
      stats;

  (* performance-aware stage (§7): steer measured-faster prefixes, but
     never fight a capacity override and never breach the capacity guard *)
  let perf_overrides =
    match (t.config.perf_aware, t.measurer) with
    | true, Some m ->
        (* the controller's enforced projection is exactly this
           placement; only a skipped round has none to reuse *)
        let capacity_placement =
          match stats with
          | Some stats -> Ef.Controller.enforced stats
          | None ->
              Ef.Projection.project ~overrides:(Ef.Override.lookup active)
                ctl_snapshot
        in
        let capacity_prefixes =
          List.fold_left
            (fun acc (o : Ef.Override.t) ->
              Bgp.Ptrie.add o.Ef.Override.prefix () acc)
            Bgp.Ptrie.empty active
        in
        Ef_altpath.Perf_policy.suggest ~config:t.perf_config
          (Ef_altpath.Measurer.store m) ctl_snapshot
          ~projection:capacity_placement
        |> List.filter (fun (s : Ef_altpath.Perf_policy.suggestion) ->
               not (Bgp.Ptrie.mem s.Ef_altpath.Perf_policy.sug_prefix capacity_prefixes))
        |> Ef_altpath.Perf_policy.to_overrides ~snapshot:ctl_snapshot
             ~projection:capacity_placement
    | _ -> []
  in
  let active = active @ perf_overrides in

  (* ground truth placement under the enforced overrides: the overrides
     move only their own prefixes, so [actual] re-decides those on the
     BGP-preferred placement *)
  let true_snapshot, actual, preferred =
    Obs.Span.time_h ob.reg ob.sp_placement @@ fun () ->
    let true_snapshot = snapshot_of_rates t truth ~time_s in
    let preferred = Ef.Projection.project true_snapshot in
    let actual =
      Ef.Projection.redecide preferred true_snapshot
        ~overrides:(Ef.Override.lookup active)
        (List.map (fun (o : Ef.Override.t) -> o.Ef.Override.prefix) active)
    in
    (true_snapshot, actual, preferred)
  in
  let ifaces = fault_ifaces in
  let util_actual = utilizations actual ifaces in

  (* close the provenance loop: the controller committed this step's trace
     cycle from its estimated view; annotate it with the ground-truth
     egress the placement actually produced (skipped cycles committed
     nothing new, so there is nothing to annotate) *)
  (if Ef_trace.Recorder.enabled t.trace && stats <> None then
     Ef_trace.Recorder.annotate_actual t.trace
       (List.map
          (fun iface ->
            let id = Ef_netsim.Iface.id iface in
            (id, Ef.Projection.load_bps actual ~iface_id:id))
          ifaces));

  (* alternate-path measurement sees post-placement congestion *)
  Obs.Span.time_h ob.reg ob.sp_accounting (fun () ->
      match t.measurer with
      | None -> ()
      | Some m ->
          ignore
            (Ef_altpath.Measurer.cycle m true_snapshot ~latency:t.latency
               ~utilization:(util_at util_actual)));

  let row =
    {
      Metrics.row_time_s = time_s;
      offered_bps = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 truth;
      detoured_bps = Ef.Projection.overridden_bps actual;
      overrides_active = List.length active;
      overrides_added = count Ef.Controller.overrides_added stats;
      overrides_removed = count Ef.Controller.overrides_removed stats;
      ifaces = iface_stats ~ifaces ~actual ~preferred;
      dropped_bps = dropped_bps actual ifaces;
      dropped_preferred_bps = dropped_bps preferred ifaces;
      weighted_rtt_ms = weighted_rtt t actual ~util:util_actual;
      weighted_rtt_preferred_ms =
        weighted_rtt t preferred ~util:(utilizations preferred ifaces);
      residual_overloads = count Ef.Controller.residual_overloads stats;
      detour_levels = detour_levels active actual;
      perf_overrides_active = List.length perf_overrides;
    }
  in
  Metrics.record t.metrics row;
  Obs.Counter.inc ob.c_steps;
  Obs.Gauge.set ob.g_offered row.Metrics.offered_bps;
  Obs.Gauge.set ob.g_detoured row.Metrics.detoured_bps;
  Obs.Gauge.set ob.g_dropped row.Metrics.dropped_bps;
  if Obs.Registry.has_sinks ob.reg then begin
    let fields =
      [
        ("time_s", Obs.Json.Int time_s);
        ("offered_bps", Obs.Json.Float row.Metrics.offered_bps);
        ("detoured_bps", Obs.Json.Float row.Metrics.detoured_bps);
        ("dropped_bps", Obs.Json.Float row.Metrics.dropped_bps);
        ("overrides_active", Obs.Json.Int row.Metrics.overrides_active);
        ("residual_overloads", Obs.Json.Int row.Metrics.residual_overloads);
      ]
      @ (match Option.bind stats Ef.Controller.degraded with
        | None -> []
        | Some reason ->
            [
              ( "degraded",
                Obs.Json.String (Ef.Controller.degradation_reason reason) );
            ])
      @
      match t.injector with
      | None -> []
      | Some inj -> (
          match Ef_fault.Injector.active_labels inj ~time_s with
          | [] -> []
          | labels ->
              [
                ( "faults",
                  Obs.Json.List (List.map (fun l -> Obs.Json.String l) labels)
                );
              ])
    in
    Obs.Registry.emit ob.reg ~name:"engine.step" fields
  end;
  t.last_state <- Some { actual; preferred; active_overrides = active };
  t.now <- t.now + t.config.cycle_s;
  row

let run t =
  let steps = t.config.duration_s / t.config.cycle_s in
  for _ = 1 to steps do
    ignore (step t)
  done;
  t.metrics
