(** Performance-aware placement (the paper's §7 extension).

    Capacity overrides answer "where must traffic go"; this layer answers
    "where should it go": when measurements show an alternate path
    beating the BGP-preferred one by more than a tolerance, suggest
    steering the prefix there — provided the target has capacity room.
    Deployed conservatively in the paper (a limited fraction of traffic),
    mirrored here by a per-cycle suggestion budget. *)

type suggestion = {
  sug_prefix : Ef_bgp.Prefix.t;
  sug_target : Ef_bgp.Route.t;
  improvement_ms : float;   (** positive: how much faster the target is *)
  rate_bps : float;
}

type config = {
  min_improvement_ms : float;  (** ignore deltas smaller than this *)
  max_suggestions : int;
  capacity_guard : float;      (** target iface must stay below this util *)
}

val default_config : config
(** 10 ms, 50 suggestions, 0.85 guard. *)

val default_policy : Ef_policy.t
(** {!default_config} expressed as a DSL [params] rule — compose it into
    an [Ef_policy] program to restate or tune the perf knobs there. *)

val config_of_policy : Ef_policy.env -> Ef_policy.t -> config
(** The perf-side denotation of a policy: {!default_config} with any
    [Set_min_improvement_ms] / [Set_max_suggestions] / [Set_perf_guard]
    knobs the policy's matching rules set (see
    {!Ef_policy.alloc_params}). *)

val suggest :
  ?config:config ->
  Path_store.t ->
  Ef_collector.Snapshot.t ->
  projection:Edge_fabric.Projection.t ->
  suggestion list
(** Largest improvements first, at most [max_suggestions]. A suggestion
    is emitted only when the measured-better route is a current candidate
    and moving the prefix's whole rate keeps the target interface under
    [capacity_guard] — counting the rates of the suggestions already
    accepted onto that interface, so together they never breach it. *)

val to_overrides :
  suggestion list ->
  snapshot:Ef_collector.Snapshot.t ->
  projection:Edge_fabric.Projection.t ->
  Edge_fabric.Override.t list
(** Convert accepted suggestions to controller overrides (the enforcement
    mechanism is identical to capacity overrides). *)
