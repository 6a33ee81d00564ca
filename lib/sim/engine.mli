(** The time-stepped simulation engine.

    Advances a PoP through a simulated day in controller-cycle steps. Each
    step: synthesize demand → (optionally) sample it through the sFlow
    pipeline → assemble the controller snapshot → run the controller →
    place the {e true} demand according to the enforced overrides → record
    utilizations, drops, RTTs and churn into {!Metrics}.

    The controller only ever sees estimated rates; ground truth is used
    exclusively for the recorded outcomes — the same separation the real
    deployment has between its feeds and reality. *)

(** The engine configuration: plain immutable data, so one value can be
    shared by engines running on different domains (see {!Fleet}). The
    run's instrumentation handles — registry, decision-trace recorder,
    health tracker — are not configuration; they are {!create}'s
    arguments. Build one with {!make_config}; derive one from another
    with record update ([{ c with seed = 7 }]). sFlow sampling and
    alternate-path measurement run at their modules' [default_config]. *)
type config = {
  cycle_s : int;               (** controller period (paper: 30 s) *)
  duration_s : int;
  start_s : int;               (** simulated time of day at the first cycle *)
  controller_enabled : bool;
  controller_config : Edge_fabric.Config.t;
  use_sampling : bool;         (** false = controller sees true rates *)
  measure_altpaths : bool;
  perf_aware : bool;
      (** use alternate-path measurements to steer prefixes to faster
          routes (the paper's §7 extension); requires
          [measure_altpaths]. Capacity overrides always win conflicts. *)
  policy : Ef_policy.program option;
      (** DSL policy program for this run (e.g. loaded by
          [efctl run --policy]). Wins over the scenario's own
          [import_policy]: the program's rule tree replaces the import
          route-map at world generation, and {!create} merges its
          parameter actions ({!Ef_policy.alloc_params}) into
          [controller_config] (overload thresholds, per-iface
          thresholds, guard budgets) and into the run's perf-aware
          steering (improvement floor, suggestion cap, capacity guard).
          [None] keeps whatever the scenario declares (whose knob side
          is still applied). *)
  seed : int;
  events : Ef_traffic.Demand.event list;
  faults : Ef_fault.Plan.t option;
      (** deterministic fault plan injected into this run: link flaps,
          capacity degradations, feed stalls, cycle skips/delays (see
          {!Ef_fault.Plan}); [None] = healthy run. The one failure model:
          a downed link flushes every session on it and re-announces
          their tables when it returns. A session outage on a
          single-peer PNI is a one-window
          [Link_flap { period_s = 4; down_s = until_s - from_s; _ }]
          (a period under 8 s draws no onset jitter). *)
}

val default_config : config
(** One simulated day at 30 s cycles, controller on, sampling on,
    alternate-path measurement off. *)

val make_config :
  ?cycle_s:int ->
  ?duration_s:int ->
  ?start_s:int ->
  ?controller_enabled:bool ->
  ?controller_config:Edge_fabric.Config.t ->
  ?use_sampling:bool ->
  ?measure_altpaths:bool ->
  ?perf_aware:bool ->
  ?policy:Ef_policy.program ->
  ?seed:int ->
  ?events:Ef_traffic.Demand.event list ->
  ?faults:Ef_fault.Plan.t ->
  unit ->
  config
(** Every omitted field takes its {!default_config} value. *)

type t

val create :
  ?config:config ->
  ?obs:Ef_obs.Registry.t ->
  ?trace:Ef_trace.Recorder.t ->
  ?health:Ef_health.Tracker.t ->
  Ef_netsim.Scenario.t ->
  t
(** [obs] is shared with the embedded controller and snapshot assembly, so
    one registry carries the whole pipeline's spans and counters; defaults
    to {!Ef_obs.Registry.default}. Each {!step} records the [engine.step]
    span plus one span per stage ([engine.demand], [engine.estimate],
    [engine.controller], [engine.placement], [engine.accounting]) and
    updates the [engine.*] counters and gauges.

    [trace] (default {!Ef_trace.Recorder.noop}, zero recording cost) is
    the embedded controller's decision-provenance recorder; each cycle it
    commits is additionally annotated with the ground-truth
    per-interface egress. [health] (default {!Ef_health.Tracker.noop})
    is fed once per controller round through {!observe_health}. Neither
    may be shared across domains. Raises [Invalid_argument] if
    [config.cycle_s < 1] or [config.duration_s < 0]. *)

val observe_health :
  Ef_health.Tracker.t ->
  time_s:int ->
  duration_s:float ->
  stale:bool ->
  Edge_fabric.Controller.cycle_stats option ->
  unit
(** Feed one controller round to a tracker: its wall time, collector
    staleness, and the degradation, guard violations and residual
    overloads of its stats — [None] for a round an injected fault
    skipped. A no-op on {!Ef_health.Tracker.noop}. Shared by {!step} and
    {!Dfz_run}, so every driver judges the SLO over the same signals. *)

val config : t -> config
val world : t -> Ef_netsim.Topo_gen.world
val metrics : t -> Metrics.t

val obs : t -> Ef_obs.Registry.t
(** The registry this engine (and its controller) reports into. *)

val demand : t -> Ef_traffic.Demand.t
val latency : t -> Ef_netsim.Latency.t
val measurer : t -> Ef_altpath.Measurer.t option
val controller : t -> Edge_fabric.Controller.t option
val now_s : t -> int

val injector : t -> Ef_fault.Injector.t option
(** The compiled fault plan this engine polls, when one was configured. *)

val bmp_session : t -> Ef_collector.Retry.t
(** The BMP feed's retry state machine — driven by injected stalls; its
    failure/retry/reconnect counts also land on the
    [collector.session.*] counters. *)

val cycles_skipped : t -> int
(** Controller rounds suppressed by an injected [Cycle_skip] so far. *)

val step : t -> Metrics.cycle_row
(** Run one cycle and advance time. *)

val run : t -> Metrics.t
(** Step until [duration_s] is exhausted; returns the metrics (also
    available via {!metrics}). *)

val true_rates : t -> time_s:int -> (Ef_bgp.Prefix.t * float) list
(** Ground-truth demand at an instant (nonzero prefixes only). *)

val snapshot_now : t -> Ef_collector.Snapshot.t
(** The controller-view snapshot for the current time (estimated rates if
    sampling is on). *)

type placement_state = {
  actual : Edge_fabric.Projection.t;     (** true demand, enforced overrides *)
  preferred : Edge_fabric.Projection.t;  (** true demand, BGP-only *)
  active_overrides : Edge_fabric.Override.t list;
}

val last_state : t -> placement_state option
(** The ground-truth placements of the most recent {!step} — what the
    per-prefix experiment drivers (detour RTT impact, E9) dissect. *)
