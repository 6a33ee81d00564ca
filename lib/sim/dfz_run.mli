(** The DFZ driver: end-to-end incremental controller cycles at
    full-table scale.

    Where {!Engine} simulates a PoP minute by minute (traffic model,
    faults, BGP churn through the RIB), this driver runs the scale
    experiment (e13): a {!Ef_netsim.Dfz} world of up to a million
    prefixes, advanced cycle by cycle through the
    {!Ef_collector.Snapshot.patch} delta chain so the controller's
    warm-start paths carry the load. Per-cycle wall time covers churn
    generation + snapshot patch + the full controller cycle — the
    end-to-end figure the acceptance bar (p99 < 1 s at 1M prefixes,
    steady-state churn) is stated over.

    One cycle loop serves both world kinds: the {!Ef_netsim.Dfz}
    generator ({!run}) and a RIB seeded from an MRT dump ({!run_mrt}).
    In [verify] mode a second, freshly built world replays the identical
    run (both kinds are pure in their config and cycle index) through a
    second controller that is cold because every snapshot it sees is
    assembled from scratch (unlinked, so there is no warm state to
    advance). That reference side reports into a private throwaway
    registry, so its spans and counters land nowhere. Each
    cycle's enforced overrides, loads, residuals and stale lists are
    compared for exact equality, floats included, and the enforced loads
    and stale list are also compared with a cold projection of the
    enforced override set on the assembled snapshot. *)

type config = {
  cycles : int;
  cycle_s : int;  (** simulated seconds per cycle (the paper's 30) *)
  verify : bool;  (** lockstep cold-pipeline differential check *)
  faults : Ef_fault.Plan.t option;
      (** link-flap / capacity faults applied to the interface set: a
          downed link is removed from each cycle's snapshot (and comes
          back when the outage window ends), a degraded one keeps its id
          at scaled capacity. Threaded through {!Ef_collector.Snapshot.patch}'s
          [ifaces] so flap cycles stay on the warm path. *)
}

val config :
  ?cycles:int ->
  ?cycle_s:int ->
  ?verify:bool ->
  ?faults:Ef_fault.Plan.t ->
  unit ->
  config
(** Defaults: 30 cycles of 30 s, no verification, no faults. Both
    controllers run {!Edge_fabric.Config.default}. Verification
    re-assembles every snapshot from scratch on the reference side —
    meant for smoke scale, not for the million-prefix run. Under
    [faults], both sides query one injector (pure in simulated time), so
    the differential check also pins the interface-churn warm path
    byte-for-byte. *)

type report = {
  prefix_count : int;  (** rated prefixes in the final snapshot *)
  cycles_run : int;
  incremental_hits : int;
      (** cycles the controller advanced incrementally; [cycles_run - 1]
          when the warm path engaged every patched cycle *)
  dirty_total : int;  (** churn events applied across all cycles *)
  iface_event_cycles : int list;
      (** cycles whose snapshot delta carried interface-set changes
          (ascending) — the flap-affected cycles a bench separates from
          quiet ones. Empty when [config.faults] is [None]. *)
  cycle_seconds : float array;  (** per-cycle wall time, in cycle order *)
  verified_cycles : int;
  mismatches : string list;
      (** human-readable differences found by verification; empty means
          the incremental path matched the cold path exactly *)
}

val cold_s : report -> float
(** Wall time of cycle 0 — the cold full-table assemble plus the first
    controller cycle. Reported separately because it is a different
    regime from the steady-state cycles. *)

val percentile : float array -> float -> float
(** [percentile times q]: the nearest-rank [q]-percentile of [times]
    ([0 < q <= 1]); [0.0] for an empty array. [times] is not modified. *)

val p50_s : report -> float
val p99_s : report -> float
(** {!percentile}s over the steady-state cycles — cycle 0's
    cold build is excluded (see {!cold_s}) so the headline reflects the
    regime the controller actually lives in. A single-cycle run has no
    steady state and falls back to the full (one-cycle) distribution. *)

val max_s : report -> float
val mean_s : report -> float
(** Over the steady-state cycles, like the percentiles. *)

val snapshot_of_gen :
  ?obs:Ef_obs.Registry.t ->
  ?ifaces:Ef_netsim.Iface.t list ->
  Ef_netsim.Dfz.t ->
  time_s:int ->
  Ef_collector.Snapshot.t
(** Assemble a snapshot of the generator's current state — the cold
    table build ({!Ef_collector.Snapshot.assemble}); the bench harness
    times this directly. [ifaces] substitutes the
    interface list (default the generator's own) — how a fault-derated
    or flap-filtered set enters a cold reference build. *)

val run :
  ?obs:Ef_obs.Registry.t ->
  ?trace:Ef_trace.Recorder.t ->
  ?health:Ef_health.Tracker.t ->
  ?config:config ->
  Ef_netsim.Dfz.config ->
  report
(** Generate the world, run the cycles, time them. [obs] (default
    {!Ef_obs.Registry.default}) receives the collector/controller spans
    and counters of the incremental side only. [trace] (default
    {!Ef_trace.Recorder.noop}) is the incremental controller's
    decision-trace recorder: one committed trace cycle per controller
    cycle, up to its ring capacity. [health] (default
    {!Ef_health.Tracker.noop}) is fed once per cycle with the end-to-end
    wall time — churn + patch + controller — so the SLO deadline is
    judged over the same figure the acceptance bar uses. *)

val report_to_json : report -> Ef_obs.Json.t
(** Summary object (percentiles, counters, mismatch strings) — embedded
    by the bench harness and [efctl]. *)

val pp_report : Format.formatter -> report -> unit

val run_mrt :
  ?obs:Ef_obs.Registry.t ->
  ?trace:Ef_trace.Recorder.t ->
  ?health:Ef_health.Tracker.t ->
  ?config:config ->
  ?total_bps:float ->
  ?zipf_s:float ->
  ?seed:int ->
  Ef_bgp.Mrt.t ->
  (report, Ef_bgp.Mrt.error) result
(** Seed the world from an MRT TABLE_DUMP_V2 dump instead of the
    synthetic generator: the dump rebuilds a {!Ef_bgp.Rib}
    ({!Ef_bgp.Mrt.to_rib}), demand is synthesized Zipf-skewed over the
    dump's prefixes ([total_bps], default 40 Gbps, permuted by [seed]),
    and one interface per dump peer is sized so the busiest needs
    relief (interface ids are the dump's peer ids, which is what a fault
    plan names). Cycles drift ~1% of rates deterministically in
    ([seed], cycle) through the patch chain. The run itself is {!run}'s
    loop: [obs], [trace], [health], [verify] and [faults] mean what they
    mean there. Errors are the dump's: decode/peer-table
    problems, or [Malformed] when the dump routes no prefixes or
    resolves no usable peer interfaces (which would otherwise run as a
    silently all-unroutable world). *)
