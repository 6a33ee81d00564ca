(** The policy language: typed predicates and actions with combinators.

    A policy is a tree of named rules composed with [<+>] (union:
    first-match-wins priority, like vendor route-map ordering) and [>>]
    (sequencing: the right side runs on the left side's output). Rules
    are plain data — scenarios declare them, the JSON codec loads them,
    and two backends consume them:

    - the {e interpreter} here ({!eval}, {!alloc_params}), the executable
      specification; and
    - the {e compiler} ({!Compile.route_map}), which lowers the same tree
      to flat [Ef_bgp.Policy] clauses and per-iface allocator parameters
      so the hot path never sees the DSL.

    Property tests pin the two backends to byte-identical decisions.

    One rule can speak to both backends at once: a predicate such as
    [peer_kind Public_peer] selects routes in a route-map {e and} the
    interfaces carrying public peers in the allocator — so "demote IXP
    routes and tighten the shared port's threshold" is a single rule.

    Evaluation scopes:
    - {e route scope} ({!eval}): all predicates are meaningful except
      {!Shared_port}, which is false for routes.
    - {e iface scope} ({!iface_threshold}): peer-kind/ASN predicates ask
      "is such a peer attached to this interface?", {!In_region} compares
      the PoP's region, {!Shared_port} picks the shared IXP port;
      route-only predicates (prefix, community, AS-path) are false.
    - {e global scope}: only predicates that are trivially true (no
      atomic constraint) match — global knobs come from unconditional
      rules, conventionally placed last (route matching is first-match,
      so a leading [True] rule would shadow everything after it). *)

(** {1 Types} *)

type pred =
  | True
  | False
  | Prefix_in of Ef_bgp.Prefix.t list  (** inside any of these blocks *)
  | Prefix_exact of Ef_bgp.Prefix.t
  | Prefix_len_at_least of int
  | Has_community of Ef_bgp.Community.t
  | Peer_kind of Ef_bgp.Peer.kind
  | Peer_asn of Ef_bgp.Asn.t
  | Path_contains of Ef_bgp.Asn.t
  | In_region of string
      (** route scope: the route's prefix lies in the named region's
          origin blocks (resolved via {!env}); iface scope: the PoP is in
          that region. Unknown region names match nothing. *)
  | Shared_port  (** iface scope only: the shared IXP port *)
  | And of pred list
  | Or of pred list
  | Not of pred

type action =
  (* route attribute actions — compile to Ef_bgp.Policy actions *)
  | Set_local_pref of int
  | Set_med of int option
  | Add_community of Ef_bgp.Community.t
  | Remove_community of Ef_bgp.Community.t
  | Prepend of Ef_bgp.Asn.t * int
  (* allocator / perf parameter actions — compile to engine config *)
  | Set_overload_threshold of float
      (** per-iface when the rule's predicate is iface-scoped, global
          when unconditional *)
  | Set_detour_budget of float  (** Guard.max_detour_fraction *)
  | Set_max_overrides of int  (** Guard.max_overrides *)
  | Set_min_improvement_ms of float  (** Perf_policy.min_improvement_ms *)
  | Set_perf_guard of float  (** Perf_policy.capacity_guard *)
  | Set_max_suggestions of int  (** Perf_policy.max_suggestions *)

type verdict = Ef_bgp.Policy.verdict = Accept | Reject

type rule = {
  rule_name : string;
  rule_pred : pred;
  rule_actions : action list;
  rule_verdict : verdict;
}

type t =
  | Rule of rule
  | Union of t * t  (** first-match-wins priority *)
  | Seq of t * t  (** right side runs on the left side's output *)

type program = {
  program_name : string;
  program_default : verdict;  (** when no rule matches a route *)
  program_policy : t;
}

(** {1 Builders} *)

val rule : ?verdict:verdict -> name:string -> pred -> action list -> t
(** A single named rule; [verdict] defaults to [Accept]. *)

val deny : name:string -> pred -> t
(** [rule ~verdict:Reject ~name pred []]. *)

val params : ?name:string -> action list -> t
(** An unconditional [Accept] rule carrying parameter actions — the way
    to set global knobs. Place it {e last} (see scope notes above). *)

val ( <+> ) : t -> t -> t
val ( >> ) : t -> t -> t

val union : t list -> t
(** Right fold of [<+>]. Raises [Invalid_argument] on []. *)

val program : ?default:verdict -> name:string -> t -> program
(** [default] defaults to [Reject] (vendor-style deny). *)

(* Predicate shorthands, for reading policies aloud. *)

val any : pred
val never : pred
val prefix_in : Ef_bgp.Prefix.t list -> pred
val prefix_exact : Ef_bgp.Prefix.t -> pred
val prefix_len_at_least : int -> pred
val has_community : Ef_bgp.Community.t -> pred
val peer_kind : Ef_bgp.Peer.kind -> pred
val peer_asn : Ef_bgp.Asn.t -> pred
val path_contains : Ef_bgp.Asn.t -> pred
val in_region : string -> pred
val shared_port : pred
val all_of : pred list -> pred
val any_of : pred list -> pred
val not_ : pred -> pred

(** {1 Environment} *)

type iface_info = {
  if_id : int;
  if_name : string;
  if_shared : bool;
  if_region : string;  (** the PoP's region *)
  if_peer_kinds : Ef_bgp.Peer.kind list;  (** kinds of attached peers *)
  if_peer_asns : Ef_bgp.Asn.t list;
}

type env = {
  env_self_asn : Ef_bgp.Asn.t;
  env_regions : (string * Ef_bgp.Prefix.t list) list;
      (** region name -> origin prefix blocks, resolves {!In_region} *)
  env_ifaces : iface_info list;
}

val env :
  ?regions:(string * Ef_bgp.Prefix.t list) list ->
  ?ifaces:iface_info list ->
  self_asn:Ef_bgp.Asn.t ->
  unit ->
  env

val region_blocks : env -> string -> Ef_bgp.Prefix.t list
(** [] for unknown regions. *)

(** {1 The interpreter (route scope)} *)

val pred_matches_route : env -> pred -> Ef_bgp.Route.t -> bool

type outcome =
  | No_match
  | Accepted of Ef_bgp.Route.t
  | Rejected

val eval : env -> t -> Ef_bgp.Route.t -> outcome
(** [Union p q]: [p]'s outcome unless [No_match], then [q]. [Seq p q]:
    reject in [p] is final; a route accepted by [p] is re-evaluated by
    [q] (which sees the modified attributes; [No_match] in [q] keeps
    [p]'s acceptance); a route unmatched by [p] falls through to [q]
    unmodified. Parameter actions do not modify routes. *)

val apply : ?default:verdict -> env -> t -> Ef_bgp.Route.t -> Ef_bgp.Route.t option
(** [eval] with [No_match] resolved by [default] (default [Reject]);
    [None] when rejected — same shape as [Ef_bgp.Policy.apply]. *)

(** {1 The interpreter (iface and global scope)} *)

val pred_matches_iface : env -> pred -> iface_info -> bool

val iface_threshold : env -> t -> iface_info -> float option
(** The first rule (in priority order; for [Seq], the right side wins —
    it runs later) that matches the interface and sets
    [Set_overload_threshold]. Within one rule the last such action
    wins. *)

type alloc_params = {
  ap_overload_threshold : float option;  (** global, from unconditional rules *)
  ap_iface_thresholds : (int * float) list;
      (** iface id -> threshold, only where it differs from the global *)
  ap_detour_budget : float option;
  ap_max_overrides : int option;
  ap_min_improvement_ms : float option;
  ap_perf_guard : float option;
  ap_max_suggestions : int option;
}

val alloc_params : env -> t -> alloc_params
(** The allocator-side denotation of a policy — what the engine merges
    into its controller / perf config. *)

(** {1 The standard import policy} *)

val standard_guards : self_asn:Ef_bgp.Asn.t -> t
(** Loop prevention (own ASN in path), too-specific (/25+) and
    default-route denies — the safety prelude of every import policy. *)

val standard_tiers : t
(** One accept rule per neighbor kind setting the LOCAL_PREF tier from
    {!Ef_bgp.Policy.local_pref_table} and tagging the ingest community —
    derived from that one table so code and docs cannot drift. *)

val standard_import : self_asn:Ef_bgp.Asn.t -> t
(** [standard_guards <+> standard_tiers]: drop routes containing our
    own ASN (loop prevention), drop martians (length > 24 or the default
    route), set the kind-tier LOCAL_PREF and tag the ingest community.
    Its compiled clause list is pinned by test. *)

(** {1 Validation, equality, printing} *)

val validate : t -> (unit, string) result
(** Range checks: thresholds and guards in (0, 1], budgets in [0, 1],
    counts non-negative, prepend counts non-negative, rule names
    non-empty. *)

val equal : t -> t -> bool
(** Structural. *)

val equal_program : program -> program -> bool

val pp_pred : Format.formatter -> pred -> unit
val pp_action : Format.formatter -> action -> unit
val pp : Format.formatter -> t -> unit
val pp_program : Format.formatter -> program -> unit
val pp_alloc_params : Format.formatter -> alloc_params -> unit
