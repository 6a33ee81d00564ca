(** The compiler backend: lower a policy tree to a flat first-match
    [Ef_bgp.Policy] route-map.

    [Union] concatenates clause lists (first-match priority is exactly
    route-map order). [Seq p q] is flattened by a weakest-precondition
    transformation: for every accepting clause [(g, A)] of [p] and every
    clause [(h, B, v)] of [q] we emit [(g ∧ wp_A(h), A @ B, v)] — where
    [wp_A(h)] is the guard that holds {e before} [A] iff [h] holds
    {e after} (adding a community makes [Match_community] of it true,
    removing makes it false, prepending an ASN makes
    [Match_path_contains] of it true; everything else is untouched by
    actions) — followed by a catch-all [(g, A, Accept)] for routes [q]
    does not match, with [q]'s own clauses appended for routes [p] does
    not match. Rejecting clauses pass through unchanged.

    Property tests pin this against the {!Dsl.eval} interpreter:
    byte-identical decisions on every route of hundreds of seeded
    worlds. *)

val lower_pred : Dsl.env -> Dsl.pred -> Ef_bgp.Policy.matcher
(** Statically-false predicates (e.g. {!Dsl.Shared_port} at route scope,
    unknown regions) lower to [Match_not Match_any]. *)

val lower_actions : Dsl.action list -> Ef_bgp.Policy.action list
(** Route-attribute actions only; parameter actions are dropped (they
    compile through {!Dsl.alloc_params} instead). *)

val clause_list : Dsl.env -> Dsl.t -> Ef_bgp.Policy.clause list

val route_map : ?default:Dsl.verdict -> Dsl.env -> Dsl.t -> Ef_bgp.Policy.t
(** [default] defaults to [Reject], matching {!Dsl.apply}. *)

val program_route_map : Dsl.env -> Dsl.program -> Ef_bgp.Policy.t
(** [route_map] with the program's declared default. *)

val standard_import_map : self_asn:Ef_bgp.Asn.t -> Ef_bgp.Policy.t
(** {!Dsl.standard_import} compiled with an empty environment — the
    PoP's standard import route-map. *)
