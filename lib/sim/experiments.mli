(** Experiment drivers: one per table/figure of the paper's evaluation.

    Each [eN_*] builds the data for one artifact (see DESIGN.md's index)
    and returns it as a rendered {!Ef_stats.Table.t}; [run_all] prints the
    whole evaluation. Daily simulation runs are cached per (scenario,
    configuration), so the drivers that share a run (E5/E6/E7) pay for it
    once.

    Defaults are sized to regenerate every artifact in about a minute on
    a laptop; the duration/cycle parameters let the CLI ask for the
    paper's full 30-second fidelity. *)

type run_params = {
  cycle_s : int;
  duration_s : int;
  seed : int;
  jobs : int;
      (** Domains used by {!prewarm} to fill the run cache in parallel.
          Results and telemetry are identical for every value; 1 = on
          the calling domain. *)
}

val default_params : run_params
(** 120 s cycles over one simulated day, [jobs = 1]. *)

val prewarm :
  params:run_params ->
  (bool * Edge_fabric.Config.t option * Ef_netsim.Scenario.t) list ->
  unit
(** [prewarm ~params specs] fills the daily-run cache for each
    [(controller, controller_config, scenario)] spec, [params.jobs] runs
    at a time on separate domains, forked and joined by
    {!Ef_util.Pool.map}. Pass the {e same} [controller_config]
    option the later driver will use — [None] and [Some Ef.Config.default]
    are distinct cache keys. Every daily run takes this path, at any
    [jobs] (a driver's cache miss prewarms its one spec): each run gets a
    private telemetry registry, folded into the default registry in spec
    order after the barrier, so cache contents and telemetry (counters,
    gauges summed over runs) are independent of [jobs]. *)

(* -- static characterization ---------------------------------------- *)

val e1_peering : unit -> Ef_stats.Table.t
(** Table 1: per PoP and neighbor kind — peers, interfaces, capacity and
    the share of traffic whose BGP-preferred route uses that kind. *)

val e2_route_diversity : unit -> Ef_stats.Table.t
(** Fig. 2: fraction of traffic to prefixes with >= k usable egress
    routes, per PoP. *)

val e3_preference_mix : unit -> Ef_stats.Table.t
(** Fig. 3: traffic share whose preferred route is peer vs transit. *)

(* -- dynamic experiments -------------------------------------------- *)

val e4_bgp_only_overload : ?params:run_params -> unit -> Ef_stats.Table.t
(** Fig. 4: with BGP alone — per PoP, the distribution of peak interface
    utilization, the fraction of interfaces overloaded, and the demand
    that would exceed capacity. *)

val e5_detour_volume : ?params:run_params -> unit -> Ef_stats.Table.t
(** Fig. 7: with Edge Fabric — detoured-traffic fraction over the day,
    residual overloads, and drop comparison vs BGP-only. *)

val e6_detour_levels : ?params:run_params -> unit -> Ef_stats.Table.t
(** Fig. 8: where detoured traffic lands — share per preference level of
    the detour target. *)

val e7_override_churn : ?params:run_params -> unit -> Ef_stats.Table.t
(** Fig. 9: override lifetime distribution and per-cycle churn, with the
    hysteresis ablation (A2) alongside. *)

val e8_altpath_quality : ?params:run_params -> unit -> Ef_stats.Table.t
(** Fig. 10: measured alternate-path RTT deltas — % of prefixes whose
    best alternate is better / equivalent / worse, and delta quantiles. *)

val e9_detour_rtt_impact : ?params:run_params -> unit -> Ef_stats.Table.t
(** §6: RTT change experienced by detoured prefixes at peak (includes the
    congestion relief the detour buys). *)

val e12_perf_aware : ?params:run_params -> unit -> Ef_stats.Table.t
(** §7 extension: traffic-weighted RTT with the performance-aware stage
    on vs off, and how much traffic it moves. *)

(* -- ablations -------------------------------------------------------- *)

val a1_single_pass : ?params:run_params -> unit -> Ef_stats.Table.t
(** Iterative re-projection vs single-pass allocation: detour-target
    overloads created by the naive variant. *)

val a3_threshold_sweep : ?params:run_params -> unit -> Ef_stats.Table.t
(** Detour volume and overload protection across overload thresholds. *)

val a4_granularity : ?params:run_params -> unit -> Ef_stats.Table.t
(** BGP-prefix vs /24-split detouring: overrides needed and residual
    overloads. *)

val run_all : ?params:run_params -> unit -> unit
(** Print every experiment in order with headers. *)

val clear_cache : unit -> unit
