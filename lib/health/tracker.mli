(** The Ef_health front door: SLO tracking + alerting, composed behind
    one per-cycle call.

    A tracker is either {!noop} — the shipped default, free to pass to
    every driver — or active, in which case each
    {!observe_cycle} feeds the {!Slo} state machine, evaluates the
    {!Alert} rules against the cycle context, mirrors health into the
    attached registry ([health.state.rank] gauge, [health.alerts.fired] /
    [health.cycle.overruns] / [health.state.transitions] counters), and
    emits [health.state] / [health.alert] journal events when the
    registry has sinks. *)

type input = {
  time_s : int;  (** simulation time of the cycle *)
  duration_s : float;  (** cycle wall time (injected-clock in tests) *)
  degraded : bool;
  skipped : bool;
  stale : bool;
  violations : int;
  residual : int;
}

type t

val noop : t
(** Disabled tracker: {!observe_cycle} returns [[]], costs one match. *)

val create :
  ?slo:Slo.config ->
  ?rules:Alert.rule list ->
  ?obs:Ef_obs.Registry.t ->
  unit ->
  t
(** An active tracker. [rules] defaults to
    [Alert.default_rules ~deadline_s:slo.deadline_s]; [obs] defaults to a
    private registry (pass the run's registry so health metrics land next
    to everything else and [Metric]/[Delta] rule operands can see it).
    Profiling is not a tracker concern: it reaches the run's spans
    through {!Profiler.attach} on the registry. *)

val enabled : t -> bool
val observe_cycle : t -> input -> Alert.firing list
(** Feed one controller cycle; returns the alerts that fired on it. *)

val state : t -> Slo.state
(** [Healthy] for {!noop}. *)

val cycles : t -> int
val firings : t -> Alert.firing list
val transitions : t -> (int * int * Slo.state * Slo.state) list
(** [(cycle, time_s, from, to)] state changes, in order. *)

val slo_exn : t -> Slo.t
val alerts_exn : t -> Alert.t
(** Raise [Invalid_argument] on {!noop}. *)

val prom_families : t -> Ef_obs.Prom.family list
(** [health_state] (gauge, one sample per state, 1 on the active one),
    [alerts_fired] (counter, [_total] samples labeled rule/severity, all
    rules present even at 0) and [health_slo_burn_rate] (gauge). Empty
    for {!noop}. *)

val summary_json : t -> Ef_obs.Json.t
val pp_summary : Format.formatter -> t -> unit
