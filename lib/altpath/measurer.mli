(** The alternate-path measurement scheduler.

    Each cycle it picks 200 random rated prefixes, and for each one
    routes a measurement sliver over the primary and up to three
    alternate routes (the DSCP classes), collecting 8 RTT samples per
    path into a {!Path_store}. The sliver (0.5 % of the prefix's
    traffic) is small enough that it never meaningfully loads the
    alternates — matching the paper's deployment, where measurement
    traffic is a rounding error. *)

type t

val create : seed:int -> t
val store : t -> Path_store.t

type cycle_report = {
  measured_prefixes : Ef_bgp.Prefix.t list;
  samples_taken : int;
  diverted_bps : float;   (** total measurement sliver this cycle *)
}

val cycle :
  t ->
  Ef_collector.Snapshot.t ->
  latency:Ef_netsim.Latency.t ->
  utilization:(int -> float) ->
  cycle_report
(** [utilization] maps an interface id to its current utilization, so
    congestion on a path shows up in its measured RTT — exactly how the
    paper detects that a detour or an overloaded path hurts. It is asked
    once per measured path. *)

val comparisons :
  t -> Ef_collector.Snapshot.t -> Path_store.comparison list
(** All prefixes whose primary and at least one alternate have samples,
    compared (Figure-10 material). *)
