(** Cycle-deadline SLO tracking and the Healthy/Degraded/Broken health
    state machine.

    An SLO tracker consumes one {!input} per controller cycle —
    wall-clock duration plus the deterministic impairment signals the
    engine already computes (degraded inputs, skipped cycles, staleness,
    guard violations) — and maintains a rolling deadline-overrun window,
    its burn rate against the configured target, and a health state.

    Everything here is a pure function of the observation sequence: with
    an injected clock the whole trajectory is reproducible, which is what
    makes the alert layer's output byte-stable. *)

type state = Healthy | Degraded | Broken

val state_rank : state -> int
(** [Healthy] 0, [Degraded] 1, [Broken] 2. *)

val state_to_string : state -> string
val pp_state : Format.formatter -> state -> unit

type config = {
  deadline_s : float;  (** per-cycle wall-time budget *)
  target : float;  (** SLO target, e.g. 0.99 = 99% of cycles in budget *)
  window : int;  (** rolling window length, in cycles *)
  degraded_burn : float;  (** burn rate at/above which state >= Degraded *)
  broken_burn : float;  (** burn rate at/above which state = Broken *)
  broken_consecutive : int;
      (** consecutive impaired cycles forcing Broken regardless of burn *)
  recovery_cycles : int;
      (** consecutive clean cycles required to step down one rung *)
}

val default_config : config
(** deadline 1 s (the bench record's [e13.steady_p99_s] gate at 1M
    prefixes), target 0.99, window 120 cycles, degraded at burn 1.0,
    broken at burn 10.0 or 3 consecutive impaired cycles, recovery after
    5 clean cycles. *)

type input = {
  in_duration_s : float;  (** cycle wall time *)
  in_degraded : bool;  (** controller ran its degradation ladder *)
  in_skipped : bool;  (** cycle skipped outright (counts as overrun) *)
  in_stale : bool;  (** collector retry/staleness unhealthy *)
  in_violations : int;  (** guard violations this cycle *)
  in_residual : int;  (** unplaced demand entries *)
}

type t

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] if [deadline_s] is not positive and
    finite, [window <= 0] or [target] outside (0, 1). *)

val observe : t -> input -> state
(** Feed one cycle; returns the possibly-updated state. Escalation is
    immediate, recovery one rung per [recovery_cycles] clean streak. *)

val state : t -> state
val config : t -> config
val cycles : t -> int
val overruns_total : t -> int
val impaired_total : t -> int

val overrun_fraction : t -> float
(** Deadline overruns / cycles in the rolling window (0 when empty). *)

val burn_rate : t -> float
(** [overrun_fraction / (1 - target)]: 1.0 = consuming exactly the error
    budget. *)

val worst_duration_s : t -> float
