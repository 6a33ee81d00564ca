(** Load projection: what every egress interface would carry.

    The controller's first step each cycle: place every prefix's
    estimated rate onto an egress route (BGP-preferred by default, or an
    override where one applies) and sum per interface. The projection is
    also the controller's simulator — the allocator replays candidate
    moves against it before committing them. *)

type placement = {
  placed_prefix : Ef_bgp.Prefix.t;
  rate_bps : float;
  route : Ef_bgp.Route.t;
  iface_id : int;
  overridden : bool;
}

type t

val project :
  ?overrides:(Ef_bgp.Prefix.t -> Ef_bgp.Route.t option) ->
  Ef_collector.Snapshot.t ->
  t
(** Place every rated prefix. An override route is honoured only when it
    is still among the prefix's candidates (same neighbor) — a stale
    override falls back to the preferred route and is reported via
    {!stale_overrides}. Prefixes with no route at all are dropped and
    counted in {!unroutable_bps}.

    The result does not depend on the order prefixes are visited in:
    loads and aggregates are integer millibps sums and every trie is
    content-canonical. *)

val load_bps : t -> iface_id:int -> float
(** Per-interface load. Accumulated internally in integer millibps
    (order-independent, so a projection advanced placement-by-placement
    reports bit-identical loads to one rebuilt from scratch); quantization
    is < 1 millibit/s per placement. *)

val load_millibps : t -> iface_id:int -> int64
(** {!load_bps} before the conversion: the exact sum of
    {!Ef_util.Units.to_millibps} over the interface's placements. *)

val utilization : t -> Ef_netsim.Iface.t -> float

val overloaded : t -> threshold:float -> (Ef_netsim.Iface.t * float) list
(** Interfaces whose utilization exceeds [threshold], worst first, with
    their utilization. *)

val overloaded_by :
  t -> threshold_of:(int -> float) -> (Ef_netsim.Iface.t * float) list
(** Like {!overloaded} with a per-interface threshold (keyed by iface
    id) — how per-iface policy thresholds ({!Config.threshold_for})
    enter the allocator. *)

val compare_placement : placement -> placement -> int
(** The canonical placement order: rate descending, then prefix
    ascending. A total order — allocator decisions and golden traces are
    byte-stable even when rates tie. *)

val placements_on : t -> iface_id:int -> placement list
(** In {!compare_placement} order. *)

val placements : t -> placement list
val placement_of : t -> Ef_bgp.Prefix.t -> placement option

val move : t -> Ef_bgp.Prefix.t -> to_route:Ef_bgp.Route.t -> to_iface:int -> t
(** Re-place one prefix onto a different route/interface (pure — returns
    an updated projection; the original is unchanged). Raises
    [Invalid_argument] if the prefix has no placement. *)

val add_placement :
  t ->
  prefix:Ef_bgp.Prefix.t ->
  rate_bps:float ->
  route:Ef_bgp.Route.t ->
  iface_id:int ->
  overridden:bool ->
  t
(** Insert a synthetic placement (used by /24 splitting, which replaces
    one parent placement with several children). *)

val remove_placement : t -> Ef_bgp.Prefix.t -> t

val total_bps : t -> float
val overridden_bps : t -> float
val unroutable_bps : t -> float

val unroutable_millibps : t -> int64
(** Exact millibps sum over the prefixes with no placement. Every rated
    prefix is either placed or unroutable, so for a projection of a
    snapshot (cold, warm-patched or enforced) the loads plus this equal
    {!Ef_collector.Snapshot.total_rate_millibps} exactly. *)

val stale_overrides : t -> Ef_bgp.Prefix.t list
(** Ascending prefix order — canonical, so cold and incremental cycles
    report byte-identical lists. *)

val ifaces : t -> Ef_netsim.Iface.t list

val iface_loads : t -> (Ef_netsim.Iface.t * float) list
(** Every interface paired with its projected load, in interface order.
    The raw material for provenance traces and utilization metrics. *)

(** The allocator's mutable scratch view of a projection.

    The immutable ops above copy the whole load array per move and fold
    the whole placement trie per [placements_on] — fine for auditing,
    quadratic for the relief loop. A working view is opened from a sealed
    projection, mutated in place (O(1) load updates, and a per-interface
    placement index in {!compare_placement} order — one {e slot} per
    interface, built the first time that interface is read in that order
    and kept current at O(log n) per mutation after that), and sealed back
    into an ordinary immutable {!t} when the cycle's decisions are final,
    so every downstream consumer ([before]/[final], trace, guard,
    hysteresis) still sees the unchanged persistent type.

    A slot is a cache of an order {!compare_placement} already defines:
    whether it is built never changes what a read returns, only what the
    read costs. Built slots survive {!copy}, so a retained image carries
    them into the next cycle, where {!apply_dirty} and
    {!apply_iface_delta} keep them current at O(churn · log n).

    A working view aliases nothing mutable in its source projection:
    sealing and the source are both safe to keep using. *)
module Working : sig
  type proj := t
  type t

  val of_projection : proj -> t
  (** O(interfaces + stale overrides): no per-placement work, the
      per-interface index starts unbuilt. The source projection is not
      mutated. *)

  val copy : t -> t
  (** O(interfaces) snapshot of a working view: load and index arrays are
      duplicated, everything persistent (including already-built index
      slots) is shared. The copy and the original can then be mutated
      independently — this is how a cycle's pre-relief image is retained,
      slots and all, as the next cycle's warm-start base. A slot built
      later on one side is not built on the other. *)

  val retain_slots : t -> keep:(int -> bool) -> unit
  (** Build the slot of every interface id with [keep id] (a no-op for a
      slot already built) and drop every other slot. The allocator keeps
      exactly the slots of the interfaces it will relieve, so an image
      retained for the next cycle carries those and no others. *)

  val indexed : t -> int list
  (** Interface ids whose slot is built, ascending. *)

  val slot_builds : t -> int
  (** Slots built on this view since it was opened or copied — the
      allocator's [allocator.slot_builds] count. *)

  val seal : t -> proj
  (** Freeze into an immutable projection. The working view may continue
      to be mutated afterwards; the sealed copy does not alias it. *)

  val load_bps : t -> iface_id:int -> float
  val placement_of : t -> Ef_bgp.Prefix.t -> placement option

  val placements_on : t -> iface_id:int -> placement list
  (** In {!compare_placement} order, materialized from the per-interface
      index. The first ordered read of an interface ([placements_on] or
      [placements_seq]) with no built slot builds
      one: an O(n) scan of the placement trie plus an O(k log k) sort of
      that interface's k placements. Later reads are O(k), and mutations
      keep the built slot current at O(log k) each. *)

  val placements_seq : t -> iface_id:int -> placement Seq.t
  (** {!placements_on} without materializing the list — the relief loop
      usually stops after a handful of placements, so on a 100k-placement
      interface the lazy walk is the difference between O(moves·log) and
      O(interface population) per relief step (after the one-off slot
      build of the first read). The sequence is immutable
      (it walks the set as of the call); mutating the working view does
      not invalidate an already-obtained sequence. *)

  val move : t -> Ef_bgp.Prefix.t -> to_route:Ef_bgp.Route.t -> to_iface:int -> unit
  (** In-place re-placement; marks the placement overridden. Raises
      [Invalid_argument] if the prefix has no placement. *)

  val add_placement :
    t ->
    prefix:Ef_bgp.Prefix.t ->
    rate_bps:float ->
    route:Ef_bgp.Route.t ->
    iface_id:int ->
    overridden:bool ->
    unit
  (** Places [prefix]; a placement it already had is retracted first
      (its load and index entry with it). *)

  val remove_placement : t -> Ef_bgp.Prefix.t -> unit

  val apply_dirty :
    t ->
    snapshot:Ef_collector.Snapshot.t ->
    ?overrides:(Ef_bgp.Prefix.t -> Ef_bgp.Route.t option) ->
    dirty:Ef_collector.Snapshot.change list ->
    unit ->
    unit
  (** Advance a pre-relief working image to a new snapshot by re-placing
      only the dirty prefixes, in one pass: each is re-decided with the
      cold pass's rule under [overrides], then moved from wherever it sat
      to its new place — placement, unroutable pool, stale list — with
      one descent of each of those tries. Interface loads and the
      unroutable sum move by each prefix's exact integer contribution
      (associative, so no re-summation is needed) and the total is the
      snapshot's own — every aggregate is the one a full {!project} of
      [snapshot] would produce, so sealing the result is byte-identical
      to a cold projection, not merely close. Cost is O(dirty · log n),
      independent of table size.

      Preconditions (the callers' warm-validity checks): [snapshot] has
      the same interface-id set as the image's source — apply an
      interface-set delta first ({!apply_iface_delta}) when it does not;
      clean prefixes' candidate routes and the override assignment for
      clean prefixes are unchanged. Capacity-only interface changes are
      fine — the new interface list is adopted. *)

  val remove_iface :
    t ->
    snapshot:Ef_collector.Snapshot.t ->
    ?overrides:(Ef_bgp.Prefix.t -> Ef_bgp.Route.t option) ->
    iface_id:int ->
    unit ->
    unit
  (** Re-decide exactly the prefixes placed on [iface_id] against
      [snapshot] (which must no longer carry the interface). The
      affected prefixes are found by one O(n) scan of the placement trie
      that allocates only for the matches, and re-placed in O(affected ·
      log n). The
      affected set is exact because placement follows only the head
      candidate (or a still-valid override) and an unresolvable route
      leaves a prefix unplaced: no other prefix's decision can change
      when an interface disappears. The interface's slot is dropped whole,
      not drained one placement at a time. *)

  val add_iface :
    t ->
    snapshot:Ef_collector.Snapshot.t ->
    ?overrides:(Ef_bgp.Prefix.t -> Ef_bgp.Route.t option) ->
    iface_id:int ->
    unit ->
    unit
  (** Re-decide the unplaced pool against [snapshot] (which now carries
      the interface) — the only prefixes whose decision an appearing
      interface can change, since a placed prefix's chosen route and its
      resolution are untouched. O(unplaced · log n). [iface_id] is
      documentation; one call re-decides for however many interfaces
      appeared. *)

  val apply_iface_delta :
    t ->
    snapshot:Ef_collector.Snapshot.t ->
    ?overrides:(Ef_bgp.Prefix.t -> Ef_bgp.Route.t option) ->
    delta:Ef_collector.Snapshot.iface_change list ->
    unit ->
    unit
  (** Apply a recorded {!Ef_collector.Snapshot.iface_change} list:
      removals re-place their placements, additions re-decide the
      unplaced pool once, capacity-only entries do nothing (placement
      ignores capacity; thresholds re-derive each run). Grows the
      internal per-interface arrays when an addition extends the id
      universe, keeping every built slot. Sealing afterwards is byte-identical to a cold
      {!Projection.project} of [snapshot] — same decision rule, integer
      load and aggregate moves. *)

  val drain_touched : t -> int list
  (** Interface ids whose load changed since the last drain (most recent
      first, may repeat). The allocator re-checks only these against the
      overload threshold instead of rescanning every interface. *)
end

val redecide :
  t ->
  Ef_collector.Snapshot.t ->
  overrides:(Ef_bgp.Prefix.t -> Ef_bgp.Route.t option) ->
  Ef_bgp.Prefix.t list ->
  t
(** [redecide t snapshot ~overrides keys] re-decides only [keys] against
    [snapshot] under [overrides] (the {!Working.apply_dirty} rule) and
    keeps every other placement of [t]: O(keys · log n). When [t] is a
    projection of [snapshot] whose override assignment agrees with
    [overrides] outside [keys], the result equals [project ~overrides
    snapshot] field for field. Keys may repeat, and a key [snapshot] does
    not rate is simply absent from the result. [t] is not mutated. *)
