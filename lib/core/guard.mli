(** Safety guards on controller output.

    A TE controller that can move any prefix anywhere can also break a PoP
    in one bad cycle (garbage rates from a sampler bug, a topology change
    racing the snapshot). This layer sits between the allocator and
    enforcement and refuses to let a cycle exceed blast-radius budgets:

    - at most a bounded fraction of PoP traffic detoured at once;
    - at most a bounded number of concurrently-installed overrides;
    - no override whose target is not currently a candidate route;
    - (audit) no detour target projected above its capacity.

    [clamp] enforces the budgets by dropping the least-valuable overrides
    (smallest detoured rate first — they buy the least relief per unit of
    blast radius); [audit] reports violations without modifying anything,
    for logging and tests. *)

type config = {
  max_detour_fraction : float option;  (** of snapshot total traffic *)
  max_overrides : int option;
}

val default : config
(** No budgets (None/None) — production trusts the allocator's own
    threshold; budgets are opt-in belts. *)

val conservative : config
(** 25 % detour budget, 500 overrides — a sane belt for untrusted
    inputs. *)

type violation =
  | Detour_fraction_exceeded of { limit : float; actual : float }
  | Override_count_exceeded of { limit : int; actual : int }
  | Stale_target of Ef_bgp.Prefix.t
      (** the override's target peer no longer announces the prefix *)
  | Target_overloaded of { iface_id : int; utilization : float }
      (** a detour target projected above 100 % of its capacity *)

val pp_violation : Format.formatter -> violation -> unit

val audit :
  enforced:Projection.t ->
  config ->
  Ef_collector.Snapshot.t ->
  Override.t list ->
  violation list
(** All violations of the proposed override set, empty when clean.
    [enforced] must be the projection of the snapshot under exactly
    [overrides] (the controller's enforced projection); the target-load
    check reads every interface that receives a detour from it. *)

val clamp :
  ?trace:Ef_trace.Recorder.t ->
  config ->
  Ef_collector.Snapshot.t ->
  Override.t list ->
  Override.t list * Override.t list
(** [(kept, dropped)]: stale-target overrides are always dropped; then the
    smallest-rate overrides are shed until the fraction and count budgets
    hold. [kept @ dropped] is a permutation of the input. Each drop is
    reported to [trace] (default noop) with its reason. *)
