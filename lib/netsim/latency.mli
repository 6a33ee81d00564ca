(** Path latency model.

    The paper measures per-path RTTs by routing a slice of production
    flows over alternate paths; here RTT is synthesized deterministically
    per (prefix, egress route):

    - a propagation base from the PoP-region × origin-region pair;
    - a per-AS-hop transit penalty (longer AS paths ride more networks);
    - a stable per-(prefix, peer) multiplicative jitter drawn from a hash,
      so some transit paths genuinely beat peer paths (the paper found
      alternate paths are as good or better surprisingly often);
    - a congestion penalty that grows quadratically once the egress
      interface utilization crosses ~90 % (queueing delay), which is what
      makes overload visible to the measurement subsystem. *)

type t

val create :
  pop_region:Region.t ->
  origin_region:(Ef_bgp.Prefix.t -> Region.t) ->
  seed:int ->
  t

val base_rtt_ms : t -> Ef_bgp.Prefix.t -> Ef_bgp.Route.t -> float
(** Uncongested RTT of reaching [prefix] via [route]. Deterministic. *)

val rtt_ms :
  t -> Ef_bgp.Prefix.t -> Ef_bgp.Route.t -> utilization:float -> float
(** Base RTT plus the congestion penalty for the egress interface's
    current utilization. *)

val congestion_penalty_ms : utilization:float -> float
(** 0 below 90 % utilization, then quadratic up to a 150 ms cap at/above
    120 %. Exposed for tests and for the experiment drivers. *)
