(** The per-PoP controller loop.

    One call to {!cycle} is one 30-second controller round:

    + project BGP-preferred placement from the snapshot;
    + run the stateless {!Allocator} to get the desired override set;
    + reconcile with the installed set through {!Hysteresis};
    + report the enforced placement and the BGP messages (announcements
      and withdrawals) that realize the delta on the peering routers.

    The controller holds no routing state of its own beyond the installed
    override set — restart it and the next cycle recomputes everything
    from the feeds, as the paper's deployment does.

    Every stage is instrumented through {!Ef_obs}: each cycle records the
    [controller.cycle] span plus one span per stage ([controller.allocate],
    [controller.guard.clamp], [controller.reconcile], [controller.project],
    [controller.guard.audit]), bumps the override/guard counters, and —
    when a journal sink is attached — emits one [controller.cycle] event
    summarizing the round. Each healthy cycle also observes two
    histograms: [allocator.moves_considered] (the allocator's candidate
    evaluations) and [controller.project.redecided] (the prefixes the
    enforced projection re-decided: see {!enforced}).

    Every cycle, degraded ones included, observes its GC deltas:
    [controller.gc.minor_words] is the words the cycle allocated on the
    minor heap, exactly ([Gc.minor_words]).
    [controller.gc.major_words] and [controller.gc.promoted_words] come
    from [Gc.quick_stat], whose counters move only when a collection
    runs: a cycle reads 0 unless a collection fell inside it, and then
    the whole collection's words. [controller.gc.compactions] counts
    compactions.

    {b Graceful degradation.} The controller fails static: when its
    inputs cannot be trusted it refuses to recompute and holds the
    last-good override set instead of oscillating on garbage. Two rungs
    of the ladder are detected per cycle:

    - {e staleness} — the snapshot is older (vs [now_s]) than
      [Config.max_snapshot_age_s]: the BMP/sFlow feeds have stalled, so
      recomputing would act on a RIB that no longer exists;
    - {e low confidence} — the snapshot's total rate collapsed below
      [Config.min_rate_confidence] × the recent healthy-cycle average:
      the feed is losing samples, and the "demand" drop is an artifact.

    A degraded cycle skips the allocator and hysteresis entirely (so hold
    timers and installation ages are preserved), enforces the existing
    set, bumps the [controller.degraded.*] counters, and emits a
    [controller.degraded] journal event. *)

(** Why a cycle refused to recompute and held the last-good override
    set instead. *)
type degradation =
  | Stale_snapshot of { age_s : int; limit_s : int }
      (** snapshot age exceeded [Config.max_snapshot_age_s] *)
  | Low_confidence of { observed_bps : float; expected_bps : float }
      (** snapshot total rate collapsed below
          [Config.min_rate_confidence] × the healthy-cycle EWMA *)

val degradation_reason : degradation -> string
(** Stable machine label: ["stale_snapshot"] or ["low_confidence"]. *)

val pp_degradation : Format.formatter -> degradation -> unit

type cycle_stats
(** One cycle's outcome, read through the accessors below. *)

type t

val create :
  ?config:Config.t ->
  ?obs:Ef_obs.Registry.t ->
  ?trace:Ef_trace.Recorder.t ->
  name:string ->
  unit ->
  t
(** [obs] is where the controller's spans, counters and journal events
    land; defaults to {!Ef_obs.Registry.default}. [trace] (default
    {!Ef_trace.Recorder.noop}) receives per-prefix decision provenance:
    one cycle record per {!cycle} call covering the allocator's candidate
    verdicts, guard drops, hysteresis dispositions, the per-interface
    load table, and the enforced override set with its BGP attributes. *)

val name : t -> string
val config : t -> Config.t
val active_overrides : t -> Override.t list
val cycles_run : t -> int

val incremental_hits : t -> int
(** How many cycles advanced the allocator's pre-relief image from the
    previous cycle instead of projecting it from scratch — the cycles
    whose snapshot was delta-linked ({!Ef_collector.Snapshot.patch}) to
    the last healthy cycle's. The first cycle, a cycle after a degraded
    one, and any freshly assembled (unlinked) snapshot run cold. Results
    are byte-identical either way; this counter exists so scale tests
    can assert the fast path actually engaged. *)

val obs : t -> Ef_obs.Registry.t
(** The registry this controller reports into. *)

val trace : t -> Ef_trace.Recorder.t
(** The recorder this controller reports provenance into. *)

val override_ages : t -> now_s:int -> (Override.t * int) list
(** Installed overrides with their ages in seconds at [now_s], sorted by
    prefix. *)

val cycle : ?now_s:int -> t -> Ef_collector.Snapshot.t -> cycle_stats
(** [now_s] is the controller's own clock, used only for staleness
    detection against the snapshot's timestamp; it defaults to the
    snapshot's own time (age 0 — never stale), which preserves the
    behaviour of callers that always hand the controller a fresh view. *)

val bgp_updates : cycle_stats -> Ef_bgp.Msg.update list
(** The wire-level enforcement of one cycle: withdrawals for removed
    overrides, announcements for added and retargeted ones (a retarget
    is a plain re-announcement — BGP implicit withdraw). *)

val detour_fraction : cycle_stats -> float
(** detoured_bps / total_bps (0 when idle). *)

(** {2 [cycle_stats] accessors}

    Field-for-field accessors plus the derived lists the drivers actually
    want; {!pp_cycle_stats} and {!cycle_stats_to_json} summarize a cycle. *)

val time_s : cycle_stats -> int
val total_bps : cycle_stats -> float
val detoured_bps : cycle_stats -> float
val preferred : cycle_stats -> Projection.t
val enforced : cycle_stats -> Projection.t
(** The placement with the active override set enforced — equal, field
    for field, to {!Projection.project} [~overrides:(Override.lookup
    (overrides_enforced stats))] on the cycle's snapshot. A healthy cycle
    derives it from the allocator's final image by re-deciding only the
    {!overrides_held} prefixes, the {!guard_dropped} ones and the
    allocator's [split_keys]: every other active override is a move that
    image already carries. *)

val allocator_result : cycle_stats -> Allocator.result
val guard_dropped : cycle_stats -> Override.t list
val guard_violations : cycle_stats -> Guard.violation list
val overloaded_before : cycle_stats -> (Ef_netsim.Iface.t * float) list
val overloaded_after : cycle_stats -> (Ef_netsim.Iface.t * float) list

val degraded : cycle_stats -> degradation option
(** [Some _] when the cycle failed static and held the previous set. *)

val overrides_enforced : cycle_stats -> Override.t list
(** The set enforced after the cycle ([reconcile.active]). *)

val overrides_added : cycle_stats -> Override.t list
val overrides_removed : cycle_stats -> (Override.t * int) list
(** With lifetime in seconds. *)

val overrides_retargeted : cycle_stats -> Override.t list

val overrides_held : cycle_stats -> Override.t list
(** Active overrides that differ from what the allocator asked for this
    cycle: retargets held back by [min_hold_s] and deferred releases
    ([reconcile.held]; empty on a degraded cycle). *)

val residual_overloads : cycle_stats -> (Ef_netsim.Iface.t * float) list
(** Interfaces the allocator could not relieve ([allocator.residual]). *)

val pp_cycle_stats : Format.formatter -> cycle_stats -> unit
(** One-line operational summary of a cycle. *)

val cycle_stats_to_json : cycle_stats -> Ef_obs.Json.t
(** Counts-and-volumes summary (no projections or override details) —
    the same shape the journal event carries. *)
