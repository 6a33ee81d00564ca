(** Fleet view: every PoP's controller, side by side.

    Edge Fabric runs one controller per PoP with no cross-PoP
    coordination (that independence is a design point of the paper); the
    fleet layer exists for what the operators' dashboards do — running
    all the PoPs over the same simulated day and aggregating outcomes.

    That independence also makes the fleet embarrassingly parallel:
    {!run} can shard the PoPs across OCaml domains ([?jobs]). Each engine
    owns a private {!Ef_obs.Registry.t} (the process-wide registry is
    unsynchronized mutable state, unsafe to share across domains); after
    the barrier the per-PoP registries are folded into the fleet registry
    with {!Ef_obs.Registry.merge}, in engine order, on the calling
    domain. The domains are forked per run by {!Ef_util.Pool.map} and
    joined before {!run} returns; none outlives the run. Results, merged telemetry and replayed journals are therefore
    byte-identical for every [jobs] value — parallelism can never change
    a routing decision (pinned by test). *)

type t

val create :
  ?config:Engine.config ->
  ?obs:Ef_obs.Registry.t ->
  ?profiler:Ef_health.Profiler.t ->
  Ef_netsim.Scenario.t list ->
  t
(** One engine per scenario, sharing the engine configuration — plain
    data, safe to share across domains (each world still derives from its
    own scenario seed). Every engine reports into a private registry;
    {!run} merges them into [obs] (the process-wide default when
    omitted) and additionally records a
    [fleet.pop_run] span and bumps [fleet.pops_run] per completed PoP.
    An enabled [profiler] (default {!Ef_health.Profiler.noop}) is
    attached to every per-engine registry and the fleet registry, so a
    parallel run exports a Chrome trace with one row per domain: every
    engine/controller stage span, each pool task tagged with its lane,
    and the post-barrier [fleet.merge]. *)

val of_paper_pops :
  ?config:Engine.config ->
  ?obs:Ef_obs.Registry.t ->
  ?profiler:Ef_health.Profiler.t ->
  unit ->
  t

val engines : t -> (string * Engine.t) list

val registries : t -> (string * Ef_obs.Registry.t) list
(** The per-engine registries, in engine order. *)

val registry : t -> Ef_obs.Registry.t
(** The fleet registry that {!run} merges into. *)

val run : ?jobs:int -> t -> (string * Metrics.t) list
(** Run every PoP to completion, [jobs] at a time ([jobs = 1], the
    default, is the plain sequential path — no domain is spawned). Raises
    [Invalid_argument] unless [1 <= jobs <= 128].
    Results keep scenario order regardless of [jobs]. If the fleet
    registry has journal sinks when [run] starts, engine events are
    buffered during the run and replayed into those sinks after the
    barrier, in engine order, with their original timestamps. [run] is
    intended to be called once per fleet: a second call would simulate a
    further day and merge the (cumulative) per-engine telemetry again.
    With an enabled profiler, a parallel run ([jobs > 1]) records one
    [pool.task] span per PoP, tagged with the lane that ran it, and the
    per-lane busy seconds land in the fleet registry as
    [pool.laneN.busy_s] gauges after the barrier. *)

type summary = {
  pops : int;
  offered_peak_bps : float;    (** sum of per-PoP peak offered traffic *)
  mean_detour_fraction : float; (** traffic-weighted across PoPs *)
  overloaded_ifaces : int;     (** interfaces that ever exceeded capacity *)
  overloaded_ifaces_bgp_only : int; (** same, had BGP alone decided *)
  total_overrides_installed : int;
}

val summarize : (string * Metrics.t) list -> summary
val summary_table : (string * Metrics.t) list -> Ef_stats.Table.t
(** Per-PoP rows plus a fleet totals row. *)
