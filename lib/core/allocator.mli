(** The Edge Fabric allocator (§5 of the paper).

    Stateless: every cycle it starts from the BGP-preferred projection
    and produces the complete set of overrides needed to bring every
    interface below the overload threshold. Greedy and iterative: while
    any interface is projected above threshold, pick a prefix placed on
    the worst-loaded such interface and detour it to its most-preferred
    alternate route whose interface has room for the whole prefix,
    re-projecting after each move so a detour target never gets pushed
    over the threshold itself.

    Knobs ({!Config.t}): visit prefixes largest- or smallest-first;
    disable re-projection ([iterative = false], the ablation baseline
    that overloads detour targets); split prefixes into /24s when a whole
    prefix fits nowhere. *)

type result = {
  overrides : Override.t list;
  before : Projection.t;       (** BGP-preferred placement *)
  final : Projection.t;        (** placement after all moves *)
  residual : (Ef_netsim.Iface.t * float) list;
      (** interfaces still over threshold — capacity genuinely exhausted *)
  moves_considered : int;      (** candidate (prefix, target) pairs examined *)
  splits : int;                (** /24 splits performed (Split_24 only) *)
  split_keys : Ef_bgp.Prefix.t list;
      (** Sorted; empty when [splits = 0]. The prefixes where [final] can
          differ from a projection of [overrides] because of splitting:
          every split parent (gone from [final]), every /24 child (placed
          in [final] at its share of the parent's rate, but unrated in the
          snapshot) and every block the child overrides were aggregated
          into. *)
}

val run :
  ?obs:Ef_obs.Registry.t ->
  config:Config.t ->
  ?trace:Ef_trace.Recorder.t ->
  Ef_collector.Snapshot.t ->
  result
(** [trace] (default {!Ef_trace.Recorder.noop}) receives one
    {!Ef_trace.Recorder.attempt} per prefix evaluation — every candidate
    route examined with its verdict, plus the outcome (moved, stuck, or
    split). Costs one branch per stage when disabled.

    [obs] (default {!Ef_obs.Registry.default}) receives two counters:
    - [allocator.iface_thresholds.dropped], bumped once per run (with a
      log warning) for each {!Config.iface_thresholds} entry whose id lies
      outside the snapshot's interface universe and would otherwise
      vanish silently;
    - [allocator.slot_builds], one per ordered slot built (see
      {!Projection.Working.placements_on}) — a slot carried in a warm
      state costs none.

    [run] is {!run_warm} with no warm state: a cold run. *)

type warm
(** Last cycle's pre-relief working image: the BGP-preferred placement of
    its snapshot before any allocator move. Holding one lets the next
    cycle skip the O(n) projection and re-place only the prefixes the
    snapshot delta touched. The image also carries the ordered slot of
    every interface overloaded in it (under the run's per-interface
    thresholds) and no other slot, so a PoP that relieves the same
    interfaces cycle after cycle builds their slots once. *)

val run_warm :
  ?obs:Ef_obs.Registry.t ->
  config:Config.t ->
  ?trace:Ef_trace.Recorder.t ->
  ?warm:warm ->
  Ef_collector.Snapshot.t ->
  result * warm
(** {!run}, incrementally — the controller's one allocation path. When
    [warm] is given and the new snapshot is [linked] to the warm snapshot
    (built from it by {!Snapshot.patch}), the pre-relief projection is
    advanced instead of recomputed: first over the delta's recorded
    interface-set changes (a removed interface re-places exactly its
    placements, an added one re-decides the unplaced pool, a capacity
    change costs nothing — {!Projection.Working.apply_iface_delta}), then
    over the dirty prefixes — and because the relief loop is a pure
    function of the pre-relief image, the result is byte-identical to a
    cold {!run}, floats included, interface churn or not. Cold is simply
    the case with no linked warm state (no [warm], or an unlinked
    snapshot such as a freshly assembled one): the image is projected
    from scratch, so correctness never depends on the caller's cadence.
    The returned [warm] seeds the next cycle either way. The allocator
    remains stateless in its *decisions*: overrides are recomputed from
    scratch every cycle; only the projection work (and the ordered slots
    of overloaded interfaces, a cache of an order the placements already
    define) is reused. *)

val warm_valid : ?warm:warm -> Ef_collector.Snapshot.t -> bool
(** Whether {!run_warm} would take the incremental path for this
    snapshot: a warm state is present and the snapshot is delta-linked
    to its snapshot. Interface-set changes no longer invalidate the warm
    state — a linked delta records them exactly and {!run_warm} patches
    the image over them in O(affected). O(1). *)

val warm_snapshot : warm -> Ef_collector.Snapshot.t
(** The snapshot the warm image projects. *)

val warm_image : warm -> Projection.Working.t
(** A private copy of the warm state's pre-relief image — the
    BGP-preferred placement of {!warm_snapshot} with no allocator move
    applied — with its carried slots: the image the next {!run_warm}
    advances. For tests and diagnostics. *)

val relief_bps : result -> float
(** Total traffic detoured by the produced overrides. *)

val check_invariants : config:Config.t -> result -> (unit, string) Stdlib.result
(** Post-conditions the tests enforce:
    - with [iterative = true], no interface that was under threshold
      before is over threshold after;
    - no override detours to the interface it is relieving;
    - override rates are non-negative.
    (That every target route is a genuine candidate of its prefix is
    checked separately in the test-suite against the snapshot.) *)
