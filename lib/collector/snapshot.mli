(** The controller's input: one coherent view per cycle.

    Every allocator run starts from a snapshot combining the three feeds —
    candidate routes per prefix (BMP), estimated per-prefix rates (sFlow),
    and interface capacities (SNMP/config). The allocator never touches
    live router state; it recomputes from the snapshot alone, which is
    what makes the controller stateless and restartable (§5 of the
    paper). *)

type t

type change = {
  ch_prefix : Ef_bgp.Prefix.t;
  ch_old_rate : float option;  (** rate in the older snapshot, if rated *)
  ch_new_rate : float option;  (** rate in the newer snapshot, if rated *)
  ch_routes : bool;  (** candidate routes may differ between the two *)
}
(** One dirty prefix in a snapshot-to-snapshot delta. *)

type iface_change = {
  ic_id : int;  (** the interface id the change is about *)
  ic_old_capacity : float option;
      (** capacity in the older snapshot; [None] = the id carried no
          interface there (the change is an addition) *)
  ic_new_capacity : float option;
      (** capacity in the newer snapshot; [None] = removed *)
}
(** One interface-set difference in a snapshot-to-snapshot delta.
    Identity is [(id, capacity)]: an interface re-made with the same id
    and capacity is not a change (placement resolves by id; thresholds
    re-derive from capacity every allocator run), so a caller may pass
    a freshly built but equal interface list to {!patch} every cycle
    without recording spurious deltas. *)

type diff = {
  changes : change list;
  iface_changes : iface_change list;
      (** interface-set delta, ascending id order. Exact whether or not
          the pair is [linked] — both interface indexes are at hand. *)
  linked : bool;
      (** [true] when the delta was recorded by {!patch} (exact, including
          route invalidations); [false] when reconstructed from two
          unrelated snapshots, where rate changes are exact but route
          changes are unknowable and conservatively flagged on every
          changed prefix. Clean prefixes of an unlinked pair may still
          have changed routes — incremental consumers must treat
          [linked = false] as "recompute from scratch". *)
}

val assemble :
  ?obs:Ef_obs.Registry.t ->
  routes:(Ef_bgp.Prefix.t -> Ef_bgp.Route.t list) ->
  iface_of_peer:(int -> Ef_netsim.Iface.t option) ->
  ifaces:Ef_netsim.Iface.t list ->
  prefix_rates:(Ef_bgp.Prefix.t * float) list ->
  time_s:int ->
  unit ->
  t
(** [routes] must return candidates in decision-ranked order (head =
    BGP-preferred), and must answer the same for the snapshot's lifetime
    (see {!routes}). Each [prefix_rates] entry sets its prefix's rate in
    list order, the way {!patch} applies [rate_updates]: the {b last}
    entry for a prefix wins, and a last entry at or below zero (or NaN)
    leaves the prefix unrated. The total, the count, {!prefix_rates},
    {!rate_of} and everything projected from the snapshot follow that
    one rule.

    Assembly is instrumented: the [collector.assemble] span and the
    [collector.snapshots] counter (plus a [collector.snapshot.prefixes]
    gauge) land in [obs], defaulting to {!Ef_obs.Registry.default}. *)

val of_pop :
  ?obs:Ef_obs.Registry.t ->
  ?ifaces:Ef_netsim.Iface.t list ->
  Ef_netsim.Pop.t ->
  prefix_rates:(Ef_bgp.Prefix.t * float) list ->
  time_s:int ->
  t
(** Assemble directly from a PoP (simulator fast path — identical content
    to the BMP-reconstructed view, which tests verify). Candidates are
    read through {!Ef_bgp.Rib.ranked_view}, so the snapshot sees the
    PoP's RIB as it stood at the call: later RIB updates reach the
    controller only through a new snapshot. [ifaces]
    substitutes the PoP's interface list — the fault injector passes
    capacity-derated copies so the controller sees degraded links the way
    SNMP would report them; [iface_of_peer] resolves into the substituted
    list by id. Defaults to the PoP's own interfaces. *)

val patch :
  ?obs:Ef_obs.Registry.t ->
  prev:t ->
  ?routes:(Ef_bgp.Prefix.t -> Ef_bgp.Route.t list) ->
  ?ifaces:Ef_netsim.Iface.t list ->
  ?routes_changed:Ef_bgp.Prefix.t list ->
  rate_updates:(Ef_bgp.Prefix.t * float) list ->
  time_s:int ->
  unit ->
  t
(** Delta construction: [prev] with the given absolute rates applied
    (a rate at or below zero, or NaN, withdraws the prefix; a no-op
    update — same rate, not in [routes_changed] — is dropped from the
    recorded delta) and the [routes_changed] prefixes' candidate lists
    invalidated. Updates apply in list order, so the last one for a
    prefix wins; a prefix both rate-updated and in [routes_changed] is
    recorded once, with [ch_routes = true]. All unchanged structure is
    shared with [prev] and the total moves by each rate change's exact
    integer contribution, so the cost is O(churn · log n) — no pass over
    the table. The result is byte-identical to a fresh {!assemble} of
    the same content, and remembers its delta so {!diff} [prev]
    the-result is exact and [linked].

    [routes] must agree with [prev]'s source on every prefix outside
    [routes_changed] (clean prefixes keep their meaning); omitting it
    reuses [prev]'s source. [ifaces] substitutes the interface list the
    way {!of_pop}'s [ifaces] does — peer resolution is by stable
    interface id, so derated copies are picked up. Added, removed and
    capacity-changed interfaces are recorded as the delta's
    {!iface_change} list (content-based: re-passing an equal list
    records nothing), which is what lets the allocator's warm path
    survive interface-set churn instead of recomputing cold. *)

val linked : t -> t -> bool
(** [linked prev next]: [next] is [prev] itself or was built from it by
    {!patch} — i.e. {!diff} would be exact and cheap. O(1); incremental
    consumers use it to decide warm vs cold without paying the
    merge-walk an unlinked {!diff} performs. *)

val diff : t -> t -> diff
(** [diff prev next]: the prefixes whose rates or candidate routes
    differ. When [next] was built by {!patch} from [prev] this returns
    the recorded delta ([linked = true]); otherwise it merge-walks the
    two rate tries — cost proportional to the structural difference —
    and conservatively flags routes on every changed prefix
    ([linked = false]). *)

val time_s : t -> int
val prefix_rates : t -> (Ef_bgp.Prefix.t * float) list
(** Descending by rate, prefix-ascending within a rate tie — a total
    order, byte-stable however the snapshot was built. Sorted on the
    first call (O(n log n)) and kept; for off-hot-path callers. *)

val iter_rates : t -> (Ef_bgp.Prefix.t -> float -> unit) -> unit
(** Iterate rated prefixes in ascending prefix order (the rate trie's
    order), without materializing or sorting anything — for consumers
    whose result does not depend on the order, like the projection. *)

val rate_of : t -> Ef_bgp.Prefix.t -> float

val rated_covers : t -> Ef_bgp.Prefix.t -> (Ef_bgp.Prefix.t * float) list
(** The rated prefixes equal to or covering the argument, with their
    rates, most specific first: at most 33 exact probes of the rate
    trie, nothing sorted. *)

val routes : t -> Ef_bgp.Prefix.t -> Ef_bgp.Route.t list
(** The candidate list, from the source the snapshot was built with
    (each call asks it; nothing is cached). That source must answer the
    same for the snapshot's lifetime — a lookup into a pre-ranked table,
    such as {!Ef_bgp.Rib.ranked_view}. A route change reaches the
    controller only as a new snapshot, built by {!patch} with the prefix
    in [routes_changed]. *)

val preferred_route : t -> Ef_bgp.Prefix.t -> Ef_bgp.Route.t option
val ifaces : t -> Ef_netsim.Iface.t list

val iface_by_id : t -> int -> Ef_netsim.Iface.t option
(** O(1) (array-indexed) lookup by interface id; [None] for ids no
    interface carries. *)

val max_iface_id : t -> int
(** Largest interface id in the snapshot; [-1] when there are none.
    Sizes the allocator's dense per-interface tables. *)

val iface_of_peer : t -> peer_id:int -> Ef_netsim.Iface.t option
val iface_of_route : t -> Ef_bgp.Route.t -> Ef_netsim.Iface.t option

val total_rate_bps : t -> float
(** {!total_rate_millibps} in bits per second. *)

val total_rate_millibps : t -> int64
(** The exact sum of {!Ef_util.Units.to_millibps} over every rated
    prefix's rate. Kept by add/subtract in {!patch}; the interface loads
    of a projection quantize each rate the same way, so loads plus
    unroutable traffic add up to this total exactly. *)

val prefix_count : t -> int
(** Counted at assembly, kept by {!patch}. *)
