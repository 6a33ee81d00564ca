(* ef_bgp: Decision process and Policy engine.

   This file exercises the clause-level Ef_bgp.Policy layer directly —
   it is the compiled target of Ef_policy programs, and its first-match
   semantics must stay pinned independently of the DSL. *)

module Bgp = Ef_bgp
open Helpers

let best routes = Bgp.Decision.best routes

let test_local_pref_wins () =
  let low = route ~peer_id:1 ~local_pref:(Some 200) ~path:[ 1 ] () in
  let high = route ~peer_id:2 ~local_pref:(Some 400) ~path:[ 1; 2; 3 ] () in
  (* higher local-pref wins despite the longer path *)
  Alcotest.check (Alcotest.option route_t) "best" (Some high) (best [ low; high ])

let test_path_length_breaks_tie () =
  let short = route ~peer_id:1 ~path:[ 1; 2 ] () in
  let long = route ~peer_id:2 ~path:[ 1; 2; 3 ] () in
  Alcotest.check (Alcotest.option route_t) "best" (Some short) (best [ long; short ])

let test_origin_breaks_tie () =
  let igp = route ~peer_id:1 ~origin:Bgp.Attrs.Igp ~path:[ 1; 2 ] () in
  let incomplete = route ~peer_id:2 ~origin:Bgp.Attrs.Incomplete ~path:[ 1; 2 ] () in
  Alcotest.check (Alcotest.option route_t) "best" (Some igp)
    (best [ incomplete; igp ])

let test_med_same_neighbor () =
  (* same neighbor AS (same first hop): lower MED wins *)
  let low = route ~peer_id:1 ~med:(Some 10) ~path:[ 7; 2 ] () in
  let high = route ~peer_id:2 ~med:(Some 50) ~path:[ 7; 3 ] () in
  Alcotest.check (Alcotest.option route_t) "best" (Some low) (best [ high; low ])

let test_med_ignored_across_neighbors () =
  (* different neighbor AS: MED not compared; router-id decides (peer 1
     has the lower router id) *)
  let a = route ~peer_id:1 ~med:(Some 50) ~path:[ 7; 2 ] () in
  let b = route ~peer_id:2 ~med:(Some 10) ~path:[ 8; 2 ] () in
  Alcotest.check (Alcotest.option route_t) "best" (Some a) (best [ b; a ])

let test_med_always_mode () =
  let config = { Bgp.Decision.med_mode = Bgp.Decision.Always } in
  let a = route ~peer_id:1 ~med:(Some 50) ~path:[ 7; 2 ] () in
  let b = route ~peer_id:2 ~med:(Some 10) ~path:[ 8; 2 ] () in
  Alcotest.check (Alcotest.option route_t) "best" (Some b)
    (Bgp.Decision.best ~config [ a; b ])

let test_router_id_tiebreak () =
  let a = route ~peer_id:1 ~path:[ 1; 2 ] () in
  let b = route ~peer_id:2 ~path:[ 3; 2 ] () in
  (* identical on all attributes; peer 1 has lower router id (10.0.0.1) *)
  Alcotest.check (Alcotest.option route_t) "best" (Some a) (best [ b; a ])

let test_empty_candidates () =
  Alcotest.check (Alcotest.option route_t) "none" None (best [])

let test_rank_total_and_consistent () =
  let routes =
    [
      route ~peer_id:1 ~local_pref:(Some 400) ~path:[ 1 ] ();
      route ~peer_id:2 ~local_pref:(Some 350) ~path:[ 2 ] ();
      route ~peer_id:3 ~local_pref:(Some 200) ~path:[ 3; 4 ] ();
      route ~peer_id:4 ~local_pref:(Some 200) ~path:[ 5 ] ();
    ]
  in
  let ranked = Bgp.Decision.rank routes in
  Alcotest.(check int) "all ranked" 4 (List.length ranked);
  Alcotest.check route_t "head = best"
    (Option.get (best routes))
    (List.hd ranked);
  (* the transit with the shorter path ranks above the longer one *)
  Alcotest.(check int) "3rd is short transit" 4
    (Bgp.Route.peer_id (List.nth ranked 2));
  Alcotest.(check int) "4th is long transit" 3
    (Bgp.Route.peer_id (List.nth ranked 3))

let test_preference_level () =
  let r1 = route ~peer_id:1 ~local_pref:(Some 400) () in
  let r2 = route ~peer_id:2 ~local_pref:(Some 300) () in
  let candidates = [ r2; r1 ] in
  Alcotest.(check (option int)) "best is 0" (Some 0)
    (Bgp.Decision.preference_level candidates r1);
  Alcotest.(check (option int)) "alt is 1" (Some 1)
    (Bgp.Decision.preference_level candidates r2);
  let stranger = route ~peer_id:9 () in
  Alcotest.(check (option int)) "absent" None
    (Bgp.Decision.preference_level candidates stranger)

(* --- Policy --------------------------------------------------------- *)

let test_policy_default_deny () =
  let p = Bgp.Policy.make [] in
  Alcotest.(check bool) "denied" true (Option.is_none (Bgp.Policy.apply p (route ())))

let test_policy_accept_all () =
  Alcotest.(check bool) "accepted" true
    (Option.is_some (Bgp.Policy.apply Bgp.Policy.accept_all (route ())))

let test_policy_first_match_wins () =
  let open Bgp.Policy in
  let p =
    make
      [
        {
          clause_name = "set-100";
          guard = Match_any;
          actions = [ Set_local_pref 100 ];
          verdict = Accept;
        };
        {
          clause_name = "set-999";
          guard = Match_any;
          actions = [ Set_local_pref 999 ];
          verdict = Accept;
        };
      ]
  in
  match apply p (route ()) with
  | None -> Alcotest.fail "rejected"
  | Some r -> Alcotest.(check int) "first clause applied" 100 (Bgp.Route.local_pref r)

let test_policy_matchers () =
  let open Bgp.Policy in
  let r =
    route ~prefix_str:"10.1.2.0/24" ~kind:Bgp.Peer.Private_peer ~asn:100
      ~communities:[ Bgp.Community.make 1 2 ] ~path:[ 100; 200 ] ()
  in
  let checks =
    [
      ("prefix", Match_prefix (prefix "10.0.0.0/8"), true);
      ("prefix miss", Match_prefix (prefix "11.0.0.0/8"), false);
      ("exact", Match_prefix_exact (prefix "10.1.2.0/24"), true);
      ("exact miss", Match_prefix_exact (prefix "10.1.0.0/16"), false);
      ("len", Match_prefix_len_at_least 24, true);
      ("len miss", Match_prefix_len_at_least 25, false);
      ("community", Match_community (Bgp.Community.make 1 2), true);
      ("kind", Match_peer_kind Bgp.Peer.Private_peer, true);
      ("kind miss", Match_peer_kind Bgp.Peer.Transit, false);
      ("peer asn", Match_peer_asn (Bgp.Asn.of_int 100), true);
      ("path", Match_path_contains (Bgp.Asn.of_int 200), true);
      ("not", Match_not (Match_peer_kind Bgp.Peer.Transit), true);
      ( "all",
        Match_all [ Match_prefix_len_at_least 24; Match_peer_asn (Bgp.Asn.of_int 100) ],
        true );
      ( "or",
        Match_or [ Match_peer_kind Bgp.Peer.Transit; Match_prefix_len_at_least 10 ],
        true );
    ]
  in
  List.iter
    (fun (name, m, expected) ->
      Alcotest.(check bool) name expected (matches m r))
    checks

let test_default_ingest_tiers () =
  let policy =
    Ef_policy.standard_import_map ~self_asn:(Bgp.Asn.of_int 64500)
  in
  let check_kind kind expected_lp =
    let r = route ~kind ~path:[ 100 ] () in
    match Bgp.Policy.apply policy r with
    | None -> Alcotest.failf "%s rejected" (Bgp.Peer.kind_to_string kind)
    | Some r ->
        Alcotest.(check int)
          (Bgp.Peer.kind_to_string kind)
          expected_lp (Bgp.Route.local_pref r);
        Alcotest.(check bool) "tagged" true
          (Bgp.Route.has_community (Bgp.Policy.ingest_community kind) r)
  in
  check_kind Bgp.Peer.Private_peer 400;
  check_kind Bgp.Peer.Public_peer 350;
  check_kind Bgp.Peer.Route_server 300;
  check_kind Bgp.Peer.Transit 200

let test_default_ingest_rejects () =
  let policy =
    Ef_policy.standard_import_map ~self_asn:(Bgp.Asn.of_int 64500)
  in
  (* own ASN in path: loop *)
  Alcotest.(check bool) "own asn" true
    (Option.is_none (Bgp.Policy.apply policy (route ~path:[ 100; 64500; 7 ] ())));
  (* too-specific *)
  Alcotest.(check bool) "/25 rejected" true
    (Option.is_none
       (Bgp.Policy.apply policy (route ~prefix_str:"10.0.0.0/25" ())));
  (* default route *)
  Alcotest.(check bool) "default rejected" true
    (Option.is_none (Bgp.Policy.apply policy (route ~prefix_str:"0.0.0.0/0" ())))

let test_policy_prepend_action () =
  let open Bgp.Policy in
  let p =
    make
      [
        {
          clause_name = "prepend";
          guard = Match_any;
          actions = [ Prepend (Bgp.Asn.of_int 64500, 2) ];
          verdict = Accept;
        };
      ]
  in
  match apply p (route ~path:[ 1 ] ()) with
  | None -> Alcotest.fail "rejected"
  | Some r -> Alcotest.(check int) "prepended" 3 (Bgp.Route.as_path_length r)

(* ranking is a permutation of the candidates and its head is `best` *)
let qcheck_rank_permutation =
  let gen_routes =
    QCheck.Gen.(
      list_size (int_range 1 8)
        (map
           (fun (pid, lp, plen, med) ->
             route ~peer_id:(pid mod 16) ~local_pref:(Some (100 + (lp mod 4 * 100)))
               ~med:(Some (med mod 3 * 10))
               ~path:(List.init (1 + (plen mod 4)) (fun i -> 100 + i))
               ())
           (quad small_nat small_nat small_nat small_nat)))
  in
  QCheck.Test.make ~name:"rank is a permutation with best at head" ~count:300
    (QCheck.make gen_routes)
    (fun routes ->
      (* dedup by peer id as a RIB would *)
      let routes =
        List.sort_uniq (fun a b -> compare (Bgp.Route.peer_id a) (Bgp.Route.peer_id b))
          routes
      in
      let ranked = Bgp.Decision.rank routes in
      List.length ranked = List.length routes
      && (match (ranked, Bgp.Decision.best routes) with
         | r :: _, Some b -> Bgp.Route.equal r b
         | [], None -> true
         | _ -> false)
      && List.for_all (fun r -> List.exists (Bgp.Route.equal r) ranked) routes)

let suite =
  [
    Alcotest.test_case "local pref wins" `Quick test_local_pref_wins;
    Alcotest.test_case "path length tiebreak" `Quick test_path_length_breaks_tie;
    Alcotest.test_case "origin tiebreak" `Quick test_origin_breaks_tie;
    Alcotest.test_case "med same neighbor" `Quick test_med_same_neighbor;
    Alcotest.test_case "med ignored across neighbors" `Quick
      test_med_ignored_across_neighbors;
    Alcotest.test_case "med always mode" `Quick test_med_always_mode;
    Alcotest.test_case "router id tiebreak" `Quick test_router_id_tiebreak;
    Alcotest.test_case "empty candidates" `Quick test_empty_candidates;
    Alcotest.test_case "rank total and consistent" `Quick
      test_rank_total_and_consistent;
    Alcotest.test_case "preference level" `Quick test_preference_level;
    Alcotest.test_case "policy default deny" `Quick test_policy_default_deny;
    Alcotest.test_case "policy accept all" `Quick test_policy_accept_all;
    Alcotest.test_case "policy first match wins" `Quick test_policy_first_match_wins;
    Alcotest.test_case "policy matchers" `Quick test_policy_matchers;
    Alcotest.test_case "default ingest tiers" `Quick test_default_ingest_tiers;
    Alcotest.test_case "default ingest rejects" `Quick test_default_ingest_rejects;
    Alcotest.test_case "policy prepend action" `Quick test_policy_prepend_action;
    QCheck_alcotest.to_alcotest qcheck_rank_permutation;
  ]
