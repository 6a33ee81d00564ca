(** Churn damping for overrides.

    The allocator is stateless, so two adjacent cycles can disagree about
    a borderline prefix and flap it between paths every 30 s. This layer
    reconciles the allocator's desired set with what is already installed:

    - an override present in both stays installed (no BGP churn at all);
    - a retarget (same prefix, different detour) is applied only after the
      override has been held [min_hold_s];
    - an override the allocator no longer wants is withdrawn only when it
      has been held [min_hold_s] {e and} the prefix's preferred interface
      is projected below the release threshold (threshold − margin), so a
      prefix does not oscillate across the overload threshold.

    Setting [min_hold_s = 0] and [release_margin = 0] disables damping —
    ablation A2. *)

type step_result = {
  active : Override.t list;     (** the set to enforce after this cycle *)
  added : Override.t list;
  removed : (Override.t * int) list; (** with lifetime in seconds *)
  retargeted : Override.t list; (** replaced in place (withdraw+announce) *)
  kept : Override.t list;       (** carried over unchanged *)
  held : Override.t list;
      (** the part of [kept] that differs from [desired]: retargets held
          back by [min_hold_s] and deferred releases. Every other active
          override equals (same prefix, same target peer) one the
          allocator just placed, which is what lets the controller derive
          the enforced projection from the allocator's final image by
          re-deciding only these prefixes (and the guard's drops). *)
  deferred_releases : int;      (** wanted out, but damping kept them in *)
}

type t

val create : Config.t -> t

val step :
  ?trace:Ef_trace.Recorder.t ->
  t ->
  time_s:int ->
  desired:Override.t list ->
  preferred:Projection.t ->
  step_result
(** [preferred] is this cycle's BGP-only projection (no overrides): the
    release condition reads the would-be utilization of each override's
    relieved interface from it. Every per-prefix disposition (installed,
    kept, retargeted, damped, released, deferred) is reported to [trace]
    (default noop). *)

val active : t -> Override.t list

val lookup : t -> Ef_bgp.Prefix.t -> Ef_bgp.Route.t option
(** The active override's target route for a prefix, read from the
    installed set as it stands (after the last {!step}) — the same
    answer {!Override.lookup} [(active t)] gives, without building a
    trie of the active set. *)

val installed_at : t -> Ef_bgp.Prefix.t -> int option
val active_count : t -> int

val ages : t -> now_s:int -> (Override.t * int) list
(** Every installed override with its age in seconds at [now_s], sorted
    by prefix (deterministic) — the raw material for [efctl top] and the
    override-age metrics. *)
