(* edge_fabric: Guard (blast-radius budgets) *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
module Ef = Edge_fabric
open Helpers

let fixture = Test_core.fixture
let snapshot = Test_core.snapshot
let pfx_a = Test_core.pfx_a
let pfx_b = Test_core.pfx_b
let pfx_c = Test_core.pfx_c

let route_via snap p kind =
  List.find (fun r -> Bgp.Route.peer_kind r = kind) (C.Snapshot.routes snap p)

let override_to fx snap ?(rate = 1e9) p kind =
  let target = route_via snap p kind in
  let to_iface =
    N.Iface.id (Option.get (C.Snapshot.iface_of_route snap target))
  in
  Ef.Override.make ~prefix:p ~target
    ~from_iface:(N.Iface.id fx.Test_core.iface_private)
    ~to_iface ~preference_level:1 ~rate_bps:rate

(* the enforced projection the audit reads, computed cold *)
let audit config snap os =
  let enforced =
    Ef.Projection.project ~overrides:(Ef.Override.lookup os) snap
  in
  Ef.Guard.audit ~enforced config snap os

let test_audit_clean () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 2e9); (pfx_b, 1e9) ] in
  let o = override_to fx snap pfx_a Bgp.Peer.Transit in
  Alcotest.(check int) "no violations" 0
    (List.length (audit Ef.Guard.default snap [ o ]))

let test_audit_fraction () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 8e9); (pfx_b, 2e9) ] in
  let o = override_to fx snap pfx_a Bgp.Peer.Transit in
  let config =
    { Ef.Guard.default with Ef.Guard.max_detour_fraction = Some 0.5 }
  in
  (* pfx_a is 80% of traffic: over the 50% budget *)
  match audit config snap [ o ] with
  | [ Ef.Guard.Detour_fraction_exceeded { limit; actual } ] ->
      Helpers.check_float "limit" 0.5 limit;
      Helpers.check_float "actual" 0.8 actual
  | l -> Alcotest.failf "expected fraction violation, got %d" (List.length l)

let test_audit_count () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 1e9); (pfx_b, 1e9) ] in
  let os =
    [
      override_to fx snap pfx_a Bgp.Peer.Transit;
      override_to fx snap pfx_b Bgp.Peer.Transit;
    ]
  in
  let config = { Ef.Guard.default with Ef.Guard.max_overrides = Some 1 } in
  Alcotest.(check bool) "count violation" true
    (List.exists
       (function Ef.Guard.Override_count_exceeded _ -> true | _ -> false)
       (audit config snap os))

let test_audit_stale_target () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 1e9); (pfx_c, 1e9) ] in
  (* build an override whose target peer does not announce pfx_c (the
     private peer never announces it) *)
  let bogus_target = route_via snap pfx_a Bgp.Peer.Private_peer in
  let o =
    Ef.Override.make ~prefix:pfx_c ~target:bogus_target ~from_iface:2 ~to_iface:0
      ~preference_level:1 ~rate_bps:1e9
  in
  match audit Ef.Guard.default snap [ o ] with
  | [ Ef.Guard.Stale_target p ] -> Alcotest.check prefix_t "prefix" pfx_c p
  | l -> Alcotest.failf "expected stale target, got %d violations" (List.length l)

let test_audit_target_overloaded () =
  let fx = fixture () in
  (* detour 11G onto the 10G public port: target overload *)
  let snap = snapshot fx [ (pfx_a, 11e9) ] in
  let o = override_to fx snap ~rate:11e9 pfx_a Bgp.Peer.Public_peer in
  Alcotest.(check bool) "target overload reported" true
    (List.exists
       (function
         | Ef.Guard.Target_overloaded { utilization; _ } -> utilization > 1.0
         | _ -> false)
       (audit Ef.Guard.default snap [ o ]))

(* A /24 split child has no routes of its own; its override's target is
   live when any rated prefix covering it still offers the target's peer. *)
let child_override snap ~child ~via kind =
  Ef.Override.make ~prefix:(prefix child) ~target:(route_via snap via kind)
    ~from_iface:0 ~to_iface:2 ~preference_level:1 ~rate_bps:1e8

let stale_targets snap os =
  List.filter_map
    (function Ef.Guard.Stale_target p -> Some (Bgp.Prefix.to_string p) | _ -> None)
    (audit Ef.Guard.default snap os)

let test_audit_split_child_resolves_through_cover () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 4e9); (pfx_c, 1e9) ] in
  Alcotest.(check int) "child has no routes of its own" 0
    (List.length (C.Snapshot.routes snap (prefix "10.1.5.0/24")));
  (* the transit peer announces pfx_a; the private peer never announces
     pfx_c *)
  let live = child_override snap ~child:"10.1.5.0/24" ~via:pfx_a Bgp.Peer.Transit in
  let stale =
    Ef.Override.make ~prefix:(prefix "10.3.5.0/24")
      ~target:(route_via snap pfx_a Bgp.Peer.Private_peer)
      ~from_iface:2 ~to_iface:0 ~preference_level:1 ~rate_bps:1e8
  in
  Alcotest.(check (list string)) "only the uncovered target is stale"
    [ "10.3.5.0/24" ] (stale_targets snap [ live; stale ])

let test_audit_split_child_nested_covers () =
  let fx = fixture () in
  (* a rated /22 inside pfx_a that only transit announces: splitting
     pfx_a puts children inside the /22 on pfx_a's candidates, so a
     child there targeting the private peer (pfx_a only) stays live *)
  let inner = prefix "10.1.4.0/22" in
  ignore
    (N.Pop.announce fx.Test_core.pop ~peer_id:2 inner
       (attrs ~path:[ 10; 100 ] ~next_hop:"172.16.0.2" ()));
  let snap = snapshot fx [ (pfx_a, 4e9); (inner, 1e9); (pfx_c, 1e9) ] in
  let covers p = List.map fst (C.Snapshot.rated_covers snap (prefix p)) in
  Alcotest.(check (list prefix_t)) "nested covers, most specific first"
    [ inner; pfx_a ] (covers "10.1.5.0/24");
  Alcotest.(check (list prefix_t)) "outside the /22" [ pfx_a ] (covers "10.1.200.0/24");
  Alcotest.(check (list prefix_t)) "a rated prefix covers itself" [ inner; pfx_a ]
    (covers "10.1.4.0/22");
  Alcotest.(check (list prefix_t)) "uncovered" [] (covers "10.9.0.0/24");
  let os =
    [
      child_override snap ~child:"10.1.5.0/24" ~via:pfx_a Bgp.Peer.Private_peer;
      child_override snap ~child:"10.1.6.0/24" ~via:inner Bgp.Peer.Transit;
      child_override snap ~child:"10.1.200.0/24" ~via:pfx_a Bgp.Peer.Private_peer;
      child_override snap ~child:"10.3.5.0/24" ~via:pfx_a Bgp.Peer.Private_peer;
    ]
  in
  Alcotest.(check (list string)) "only the target no cover offers is stale"
    [ "10.3.5.0/24" ] (stale_targets snap os)

let test_clamp_sheds_smallest_first () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 6e9); (pfx_b, 2e9) ] in
  let big = override_to fx snap ~rate:6e9 pfx_a Bgp.Peer.Transit in
  let small = override_to fx snap ~rate:2e9 pfx_b Bgp.Peer.Transit in
  let config = { Ef.Guard.default with Ef.Guard.max_overrides = Some 1 } in
  let kept, dropped = Ef.Guard.clamp config snap [ big; small ] in
  Alcotest.(check int) "one kept" 1 (List.length kept);
  Alcotest.check prefix_t "kept the big one" pfx_a
    (List.hd kept).Ef.Override.prefix;
  Alcotest.(check int) "one dropped" 1 (List.length dropped);
  Alcotest.check prefix_t "dropped the small one" pfx_b
    (List.hd dropped).Ef.Override.prefix

let test_clamp_fraction_budget () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 6e9); (pfx_b, 4e9) ] in
  let oa = override_to fx snap ~rate:6e9 pfx_a Bgp.Peer.Transit in
  let ob = override_to fx snap ~rate:4e9 pfx_b Bgp.Peer.Transit in
  let config =
    { Ef.Guard.default with Ef.Guard.max_detour_fraction = Some 0.7 }
  in
  let kept, dropped = Ef.Guard.clamp config snap [ oa; ob ] in
  (* both would detour 100%; shedding the 4G one brings it to 60% <= 70% *)
  Alcotest.(check int) "kept one" 1 (List.length kept);
  Alcotest.check prefix_t "kept big" pfx_a (List.hd kept).Ef.Override.prefix;
  Alcotest.(check int) "dropped one" 1 (List.length dropped);
  Helpers.check_float_eps 1e-9 "within budget" 0.6
    (let total = C.Snapshot.total_rate_bps snap in
     List.fold_left (fun acc o -> acc +. o.Ef.Override.rate_bps) 0.0 kept /. total)

let test_clamp_always_drops_stale () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 1e9); (pfx_c, 1e9) ] in
  let good = override_to fx snap pfx_a Bgp.Peer.Transit in
  let bogus_target = route_via snap pfx_a Bgp.Peer.Private_peer in
  let stale =
    Ef.Override.make ~prefix:pfx_c ~target:bogus_target ~from_iface:2 ~to_iface:0
      ~preference_level:1 ~rate_bps:1e9
  in
  let kept, dropped = Ef.Guard.clamp Ef.Guard.default snap [ good; stale ] in
  Alcotest.(check int) "kept the live one" 1 (List.length kept);
  Alcotest.(check int) "dropped the stale one" 1 (List.length dropped);
  Alcotest.check prefix_t "stale prefix" pfx_c (List.hd dropped).Ef.Override.prefix

let test_clamp_noop_within_budget () =
  let fx = fixture () in
  (* plenty of background traffic: the two detours are 10% of the PoP *)
  let snap = snapshot fx [ (pfx_a, 1e9); (pfx_b, 1e9); (pfx_c, 18e9) ] in
  let os =
    [
      override_to fx snap pfx_a Bgp.Peer.Transit;
      override_to fx snap pfx_b Bgp.Peer.Transit;
    ]
  in
  let kept, dropped = Ef.Guard.clamp Ef.Guard.conservative snap os in
  Alcotest.(check int) "all kept" 2 (List.length kept);
  Alcotest.(check int) "none dropped" 0 (List.length dropped)

let test_controller_respects_guard () =
  let fx = fixture () in
  (* overload needing ~2.5G of relief, but a guard that allows none *)
  let config =
    Ef.Config.make
      ~guard:{ Ef.Guard.default with Ef.Guard.max_overrides = Some 0 }
      ()
  in
  let ctrl = Ef.Controller.create ~config ~name:"guarded" () in
  let snap = snapshot fx [ (pfx_a, 8e9); (pfx_b, 4e9) ] in
  let stats = Ef.Controller.cycle ctrl snap in
  Alcotest.(check bool) "proposals were made" true
    ((Ef.Controller.allocator_result stats).Ef.Allocator.overrides <> []);
  Alcotest.(check bool) "guard dropped them" true
    (Ef.Controller.guard_dropped stats <> []);
  Alcotest.(check int) "nothing enforced" 0
    (List.length (Ef.Controller.overrides_enforced stats));
  (* the overload persists, visibly *)
  Alcotest.(check bool) "overload remains" true
    (Ef.Controller.overloaded_after stats <> [])

let suite =
  [
    Alcotest.test_case "audit clean" `Quick test_audit_clean;
    Alcotest.test_case "audit fraction" `Quick test_audit_fraction;
    Alcotest.test_case "audit count" `Quick test_audit_count;
    Alcotest.test_case "audit stale target" `Quick test_audit_stale_target;
    Alcotest.test_case "audit target overload" `Quick test_audit_target_overloaded;
    Alcotest.test_case "audit split child via cover" `Quick
      test_audit_split_child_resolves_through_cover;
    Alcotest.test_case "audit split child nested covers" `Quick
      test_audit_split_child_nested_covers;
    Alcotest.test_case "clamp sheds smallest" `Quick test_clamp_sheds_smallest_first;
    Alcotest.test_case "clamp fraction budget" `Quick test_clamp_fraction_budget;
    Alcotest.test_case "clamp drops stale" `Quick test_clamp_always_drops_stale;
    Alcotest.test_case "clamp noop within budget" `Quick
      test_clamp_noop_within_budget;
    Alcotest.test_case "controller respects guard" `Quick
      test_controller_respects_guard;
  ]
