type matcher =
  | Match_any
  | Match_prefix of Prefix.t
  | Match_prefix_exact of Prefix.t
  | Match_prefix_len_at_least of int
  | Match_community of Community.t
  | Match_peer_kind of Peer.kind
  | Match_peer_asn of Asn.t
  | Match_path_contains of Asn.t
  | Match_all of matcher list
  | Match_or of matcher list
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

type t = {
  clauses : clause list;
  default : verdict;
}

let make ?(default = Reject) clauses = { clauses; default }
let clauses t = t.clauses

let rec matches m (r : Route.t) =
  match m with
  | Match_any -> true
  | Match_prefix p -> Prefix.subsumes p (Route.prefix r)
  | Match_prefix_exact p -> Prefix.equal p (Route.prefix r)
  | Match_prefix_len_at_least n -> Prefix.length (Route.prefix r) >= n
  | Match_community c -> Route.has_community c r
  | Match_peer_kind k -> Route.peer_kind r = k
  | Match_peer_asn a -> Asn.equal (Peer.asn (Route.peer r)) a
  | Match_path_contains a -> As_path.mem a (Route.attrs r).Attrs.as_path
  | Match_all ms -> List.for_all (fun m -> matches m r) ms
  | Match_or ms -> List.exists (fun m -> matches m r) ms
  | Match_not m -> not (matches m r)

let apply_action action attrs =
  match action with
  | Set_local_pref lp -> Attrs.with_local_pref lp attrs
  | Set_med med -> Attrs.with_med med attrs
  | Add_community c -> Attrs.add_community c attrs
  | Remove_community c -> Attrs.remove_community c attrs
  | Prepend (asn, n) -> Attrs.prepend_path asn n attrs

let apply t route =
  let rec go = function
    | [] -> (
        match t.default with
        | Accept -> Some route
        | Reject -> None)
    | clause :: rest ->
        if matches clause.guard route then
          match clause.verdict with
          | Reject -> None
          | Accept ->
              let attrs =
                List.fold_left
                  (fun attrs a -> apply_action a attrs)
                  (Route.attrs route) clause.actions
              in
              Some (Route.with_attrs attrs route)
        else go rest
  in
  go t.clauses

let accept_all =
  make ~default:Accept []

(* The single source of truth for the kind->LOCAL_PREF tiers. Everything
   else (the default ingest policy, Ef_policy.standard_import, the doc
   comments) derives from this list so the values cannot drift. *)
let local_pref_table =
  [
    (Peer.Private_peer, 400);
    (Peer.Public_peer, 350);
    (Peer.Route_server, 300);
    (Peer.Transit, 200);
  ]

let local_pref_for_kind kind = List.assoc kind local_pref_table

(* 65000:1x — ingestion-kind tags; 65000:911 is reserved for controller
   overrides (see Edge_fabric.Override). *)
let ingest_community = function
  | Peer.Private_peer -> Community.make 65000 10
  | Peer.Public_peer -> Community.make 65000 11
  | Peer.Route_server -> Community.make 65000 12
  | Peer.Transit -> Community.make 65000 13

let rec pp_matcher fmt = function
  | Match_any -> Format.pp_print_string fmt "any"
  | Match_prefix p -> Format.fprintf fmt "prefix<=%a" Prefix.pp p
  | Match_prefix_exact p -> Format.fprintf fmt "prefix=%a" Prefix.pp p
  | Match_prefix_len_at_least n -> Format.fprintf fmt "len>=%d" n
  | Match_community c -> Format.fprintf fmt "community:%a" Community.pp c
  | Match_peer_kind k -> Format.fprintf fmt "peer-kind:%a" Peer.pp_kind k
  | Match_peer_asn a -> Format.fprintf fmt "peer-as%a" Asn.pp a
  | Match_path_contains a -> Format.fprintf fmt "path~as%a" Asn.pp a
  | Match_all ms ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " & ")
           pp_matcher)
        ms
  | Match_or ms ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " | ")
           pp_matcher)
        ms
  | Match_not m -> Format.fprintf fmt "!%a" pp_matcher m

let pp_action fmt = function
  | Set_local_pref lp -> Format.fprintf fmt "local-pref=%d" lp
  | Set_med (Some m) -> Format.fprintf fmt "med=%d" m
  | Set_med None -> Format.pp_print_string fmt "med=none"
  | Add_community c -> Format.fprintf fmt "+community:%a" Community.pp c
  | Remove_community c -> Format.fprintf fmt "-community:%a" Community.pp c
  | Prepend (a, n) -> Format.fprintf fmt "prepend:as%a*%d" Asn.pp a n

let pp_verdict fmt = function
  | Accept -> Format.pp_print_string fmt "accept"
  | Reject -> Format.pp_print_string fmt "reject"

let pp_clause fmt c =
  Format.fprintf fmt "@[<h>%-28s if %a -> %a%a@]" c.clause_name pp_matcher
    c.guard pp_verdict c.verdict
    (fun fmt actions ->
      List.iter (fun a -> Format.fprintf fmt " %a" pp_action a) actions)
    c.actions

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@,%-28s -> %a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_clause)
    t.clauses "(default)" pp_verdict t.default
