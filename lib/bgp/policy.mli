(** Routing policy: route-maps applied at route ingestion.

    A policy is an ordered list of clauses; the first clause whose guard
    matches decides the route's fate (reject, or accept after applying the
    clause's actions). This mirrors vendor route-maps closely enough to
    express the egress policy the paper describes: peer routes preferred
    over transit via LOCAL_PREF tiers, ingestion-point tagging with
    communities, and rejection of bogus routes. *)

type matcher =
  | Match_any                       (** always true *)
  | Match_prefix of Prefix.t        (** route's prefix inside this block *)
  | Match_prefix_exact of Prefix.t
  | Match_prefix_len_at_least of int
  | Match_community of Community.t
  | Match_peer_kind of Peer.kind
  | Match_peer_asn of Asn.t
  | Match_path_contains of Asn.t
  | Match_all of matcher list       (** conjunction *)
  | Match_or of matcher list        (** disjunction *)
  | Match_not of matcher

type action =
  | Set_local_pref of int
  | Set_med of int option
  | Add_community of Community.t
  | Remove_community of Community.t
  | Prepend of Asn.t * int

type verdict = Accept | Reject

type clause = {
  clause_name : string;
  guard : matcher;
  actions : action list;
  verdict : verdict;
}

type t

val make : ?default:verdict -> clause list -> t
(** The route-map compiler's constructor ([Ef_policy.Compile.route_map]);
    everything else builds policies with the [Ef_policy] DSL and compiles
    them. [default] applies when no clause matches; vendors default to
    deny, and so do we. *)

val clauses : t -> clause list

val matches : matcher -> Route.t -> bool
val apply_action : action -> Attrs.t -> Attrs.t

val apply : t -> Route.t -> Route.t option
(** [None] when rejected. *)

val accept_all : t

val local_pref_table : (Peer.kind * int) list
(** The LOCAL_PREF tier per neighbor kind, in preference order (best
    first) — the {e single} source for these values; the default policy,
    [Ef_policy.standard_import] and the docs all derive from it.
    (Published Facebook policy prefers peer routes over transit; exact
    values are ours, only the order matters.) *)

val local_pref_for_kind : Peer.kind -> int
(** Lookup in {!local_pref_table}. *)

val ingest_community : Peer.kind -> Community.t
(** Community tagged onto routes at ingestion, recording the neighbor
    kind — lets later stages classify routes without re-deriving it. *)

(** {2 Printers} *)

val pp_matcher : Format.formatter -> matcher -> unit
val pp_action : Format.formatter -> action -> unit
val pp_verdict : Format.formatter -> verdict -> unit
val pp_clause : Format.formatter -> clause -> unit

val pp : Format.formatter -> t -> unit
(** Route-map listing, one clause per line, default last. *)
