(** Routing information bases for one peering router.

    Holds an Adj-RIB-In per peer (routes exactly as received) and a
    Loc-RIB (post-policy candidates per prefix with their full decision
    ranking). Edge Fabric's collector reads the complete candidate sets —
    not just best paths — which is why the Loc-RIB keeps every accepted
    route and exposes {!ranked}. *)

type change = {
  prefix : Prefix.t;
  old_best : Route.t option;
  new_best : Route.t option;
}
(** Best-path transition produced by an update; [old_best = new_best]
    transitions are filtered out. *)

type t

val create : ?decision:Decision.config -> ?self_asn:Asn.t -> unit -> t
(** [self_asn], when given, enables the mandatory eBGP loop check: an
    announcement whose AS path contains our own ASN is treated as a
    withdrawal of that neighbor's route (RFC 4271 §9.1.2). *)

val add_peer : t -> Peer.t -> policy:Policy.t -> unit
(** Register a neighbor with its import policy. Re-adding an existing
    peer id raises [Invalid_argument]. *)

val peer_ids : t -> int list
val peer : t -> int -> Peer.t option

val apply_update : t -> peer_id:int -> Msg.update -> change list
(** Process one UPDATE from the given neighbor: withdrawals first, then
    announcements (through the peer's import policy). Unknown peer ids
    raise [Invalid_argument]. *)

val announce : t -> peer_id:int -> Prefix.t -> Attrs.t -> change list
(** Convenience single-prefix announcement. *)

val withdraw : t -> peer_id:int -> Prefix.t -> change list

val drop_peer : t -> peer_id:int -> change list
(** Session down: withdraw everything learned from the peer (the peer
    stays registered and may re-announce later). *)

val best : t -> Prefix.t -> Route.t option
val candidates : t -> Prefix.t -> Route.t list
(** Post-policy routes, unordered. *)

val ranked : t -> Prefix.t -> Route.t list
(** Decision-process preference order; head = best. *)

val ranked_view : t -> Prefix.t -> Route.t list
(** [ranked_view t] is {!ranked} over the Loc-RIB as it stands now: the
    persistent trie is captured when the view is made, so updates to [t]
    afterwards never reach it. O(1) to make; each lookup is one trie
    probe. The collector builds a snapshot's candidate source from this,
    which fixes the snapshot's route view at build time. Safe to call
    from several domains at once. *)

val lookup : t -> Ipv4.t -> (Prefix.t * Route.t) option
(** Longest-prefix match over best paths. *)

val adj_rib_in : t -> peer_id:int -> (Prefix.t * Attrs.t) list
(** Raw pre-policy routes from one neighbor. *)

val prefixes : t -> Prefix.t list
val prefix_count : t -> int
val route_count : t -> int
(** Total accepted candidate routes across prefixes. *)

val fold : (Prefix.t -> Route.t list -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over prefixes with their ranked candidates. *)
