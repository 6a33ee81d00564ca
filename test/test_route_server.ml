(* ef_bgp: the IXP route server.

   Export policies here are built at the clause level on purpose: the
   route server is a consumer of the compiled representation. *)

module Bgp = Ef_bgp
open Helpers

let member i asn = peer ~kind:Bgp.Peer.Public_peer ~asn i

let rs () =
  Bgp.Route_server.create ~asn:(Bgp.Asn.of_int 64600) ~router_id:(ip "10.9.9.9")

let announce_of ~path ~nh p =
  {
    Bgp.Msg.withdrawn = [];
    attrs = Some (attrs ~path ~next_hop:nh ());
    nlri = [ prefix p ];
  }

let test_reflects_to_others_not_self () =
  let server = rs () in
  ignore (Bgp.Route_server.add_member server (member 1 100));
  ignore (Bgp.Route_server.add_member server (member 2 200));
  ignore (Bgp.Route_server.add_member server (member 3 300));
  let exports =
    Bgp.Route_server.member_update server ~member_id:1
      (announce_of ~path:[ 100 ] ~nh:"172.16.0.1" "10.0.0.0/16")
  in
  let recipients =
    List.sort compare (List.map (fun e -> e.Bgp.Route_server.to_member) exports)
  in
  Alcotest.(check (list int)) "others only" [ 2; 3 ] recipients

let test_transparent_attributes () =
  let server = rs () in
  ignore (Bgp.Route_server.add_member server (member 1 100));
  ignore (Bgp.Route_server.add_member server (member 2 200));
  let exports =
    Bgp.Route_server.member_update server ~member_id:1
      (announce_of ~path:[ 100; 7 ] ~nh:"172.16.0.1" "10.0.0.0/16")
  in
  match exports with
  | [ e ] -> (
      match e.Bgp.Route_server.update.Bgp.Msg.attrs with
      | Some a ->
          (* no RS ASN on the path, next hop untouched *)
          Alcotest.(check bool) "rs asn absent" false
            (Bgp.As_path.mem (Bgp.Asn.of_int 64600) a.Bgp.Attrs.as_path);
          Alcotest.(check int) "path length" 2 (Bgp.As_path.length a.Bgp.Attrs.as_path);
          Alcotest.check ipv4_t "next hop" (ip "172.16.0.1") a.Bgp.Attrs.next_hop
      | None -> Alcotest.fail "no attrs")
  | l -> Alcotest.failf "expected one export, got %d" (List.length l)

let test_late_joiner_catches_up () =
  let server = rs () in
  ignore (Bgp.Route_server.add_member server (member 1 100));
  ignore (Bgp.Route_server.add_member server (member 2 200));
  ignore
    (Bgp.Route_server.member_update server ~member_id:1
       (announce_of ~path:[ 100 ] ~nh:"172.16.0.1" "10.0.0.0/16"));
  ignore
    (Bgp.Route_server.member_update server ~member_id:2
       (announce_of ~path:[ 200 ] ~nh:"172.16.0.2" "10.1.0.0/16"));
  let catchup = Bgp.Route_server.add_member server (member 3 300) in
  Alcotest.(check int) "both routes delivered" 2 (List.length catchup);
  List.iter
    (fun e -> Alcotest.(check int) "addressed to 3" 3 e.Bgp.Route_server.to_member)
    catchup

let test_best_switch_exports_replacement () =
  let server = rs () in
  ignore (Bgp.Route_server.add_member server (member 1 100));
  ignore (Bgp.Route_server.add_member server (member 2 200));
  ignore (Bgp.Route_server.add_member server (member 3 300));
  (* member 1's long path first, then member 2 announces a shorter one *)
  ignore
    (Bgp.Route_server.member_update server ~member_id:1
       (announce_of ~path:[ 100; 7; 8 ] ~nh:"172.16.0.1" "10.0.0.0/16"));
  let exports =
    Bgp.Route_server.member_update server ~member_id:2
      (announce_of ~path:[ 200 ] ~nh:"172.16.0.2" "10.0.0.0/16")
  in
  (* members 1 and 3 hear the new best; member 2 does not *)
  let recipients =
    List.sort compare (List.map (fun e -> e.Bgp.Route_server.to_member) exports)
  in
  Alcotest.(check (list int)) "1 and 3" [ 1; 3 ] recipients;
  match Bgp.Route_server.best server (prefix "10.0.0.0/16") with
  | Some r -> Alcotest.(check int) "member 2 is best" 2 (Bgp.Route.peer_id r)
  | None -> Alcotest.fail "no best"

let test_withdraw_exports_withdrawal_or_failover () =
  let server = rs () in
  ignore (Bgp.Route_server.add_member server (member 1 100));
  ignore (Bgp.Route_server.add_member server (member 2 200));
  ignore (Bgp.Route_server.add_member server (member 3 300));
  ignore
    (Bgp.Route_server.member_update server ~member_id:1
       (announce_of ~path:[ 100 ] ~nh:"172.16.0.1" "10.0.0.0/16"));
  ignore
    (Bgp.Route_server.member_update server ~member_id:2
       (announce_of ~path:[ 200; 7 ] ~nh:"172.16.0.2" "10.0.0.0/16"));
  (* member 1 (current best) withdraws: member 2's route takes over and is
     announced to 1 and 3; member 2 itself must not hear its own route *)
  let exports =
    Bgp.Route_server.member_update server ~member_id:1
      { Bgp.Msg.withdrawn = [ prefix "10.0.0.0/16" ]; attrs = None; nlri = [] }
  in
  let recipients =
    List.sort compare (List.map (fun e -> e.Bgp.Route_server.to_member) exports)
  in
  Alcotest.(check (list int)) "1 and 3 hear failover" [ 1; 3 ] recipients;
  List.iter
    (fun e ->
      Alcotest.(check int) "announcement, not withdrawal" 1
        (List.length e.Bgp.Route_server.update.Bgp.Msg.nlri))
    exports

let test_last_route_withdraw_is_withdrawal () =
  let server = rs () in
  ignore (Bgp.Route_server.add_member server (member 1 100));
  ignore (Bgp.Route_server.add_member server (member 2 200));
  ignore
    (Bgp.Route_server.member_update server ~member_id:1
       (announce_of ~path:[ 100 ] ~nh:"172.16.0.1" "10.0.0.0/16"));
  let exports =
    Bgp.Route_server.member_update server ~member_id:1
      { Bgp.Msg.withdrawn = [ prefix "10.0.0.0/16" ]; attrs = None; nlri = [] }
  in
  match exports with
  | [ e ] ->
      Alcotest.(check int) "to member 2" 2 e.Bgp.Route_server.to_member;
      Alcotest.(check int) "is withdrawal" 1
        (List.length e.Bgp.Route_server.update.Bgp.Msg.withdrawn)
  | l -> Alcotest.failf "expected one export, got %d" (List.length l)

let test_drop_member_flushes_and_exports () =
  let server = rs () in
  ignore (Bgp.Route_server.add_member server (member 1 100));
  ignore (Bgp.Route_server.add_member server (member 2 200));
  ignore
    (Bgp.Route_server.member_update server ~member_id:1
       (announce_of ~path:[ 100 ] ~nh:"172.16.0.1" "10.0.0.0/16"));
  let exports = Bgp.Route_server.drop_member server ~member_id:1 in
  Alcotest.(check int) "prefix gone" 0 (Bgp.Route_server.prefix_count server);
  Alcotest.(check (list int)) "member 2 told" [ 2 ]
    (List.map (fun e -> e.Bgp.Route_server.to_member) exports);
  Alcotest.(check (list int)) "members updated" [ 2 ]
    (Bgp.Route_server.member_ids server)

let test_export_policy_filters () =
  let server = rs () in
  ignore (Bgp.Route_server.add_member server (member 1 100));
  (* member 2 refuses routes originated by AS 100 *)
  let no_as100 =
    Bgp.Policy.make ~default:Bgp.Policy.Accept
      [
        {
          Bgp.Policy.clause_name = "no-as100";
          guard = Bgp.Policy.Match_path_contains (Bgp.Asn.of_int 100);
          actions = [];
          verdict = Bgp.Policy.Reject;
        };
      ]
  in
  ignore (Bgp.Route_server.add_member ~export_policy:no_as100 server (member 2 200));
  let exports =
    Bgp.Route_server.member_update server ~member_id:1
      (announce_of ~path:[ 100 ] ~nh:"172.16.0.1" "10.0.0.0/16")
  in
  Alcotest.(check int) "filtered" 0 (List.length exports)

let suite =
  [
    Alcotest.test_case "reflects to others" `Quick test_reflects_to_others_not_self;
    Alcotest.test_case "transparent attributes" `Quick test_transparent_attributes;
    Alcotest.test_case "late joiner catch-up" `Quick test_late_joiner_catches_up;
    Alcotest.test_case "best switch" `Quick test_best_switch_exports_replacement;
    Alcotest.test_case "withdraw failover" `Quick
      test_withdraw_exports_withdrawal_or_failover;
    Alcotest.test_case "last withdraw" `Quick test_last_route_withdraw_is_withdrawal;
    Alcotest.test_case "drop member" `Quick test_drop_member_flushes_and_exports;
    Alcotest.test_case "export policy" `Quick test_export_policy_filters;
  ]
