(** Rolling per-(prefix, peer) RTT statistics.

    The measurement pipeline produces RTT samples for a prefix over
    several candidate routes; this store keeps a bounded window per path
    and answers the question the paper's Figure-10 analysis asks: how
    does each alternate's median compare with the primary's? *)

type comparison = {
  cmp_prefix : Ef_bgp.Prefix.t;
  primary_peer : int;
  primary_median_ms : float;
  best_alt_peer : int;
  best_alt_median_ms : float;
  delta_ms : float;  (** alt − primary: negative = alternate is faster *)
}

type t

val window : int
(** Samples retained per path: 64, FIFO eviction. *)

val create : unit -> t

type path
(** One (prefix, peer) path's sample window: a flat ring of
    {!window} floats. *)

val path : t -> prefix:Ef_bgp.Prefix.t -> peer_id:int -> path
(** The path's window, registered empty on first use (it then counts in
    {!paths_measured}). Look a path up once and {!push} its samples. *)

val push : path -> float -> unit
(** Record one RTT sample, evicting the oldest once {!window} are held. *)

val observe : t -> prefix:Ef_bgp.Prefix.t -> peer_id:int -> rtt_ms:float -> unit
(** [push (path t ~prefix ~peer_id) rtt_ms]. *)

val sample_count : t -> prefix:Ef_bgp.Prefix.t -> peer_id:int -> int
val median_rtt_ms : t -> prefix:Ef_bgp.Prefix.t -> peer_id:int -> float option

val compare_paths :
  t -> prefix:Ef_bgp.Prefix.t -> primary:int -> alternates:int list ->
  comparison option
(** [None] until both the primary and at least one alternate have
    samples. The best alternate is the lowest-median one. *)

val paths_measured : t -> int
