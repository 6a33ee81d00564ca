(* edge_fabric core: Config, Projection, Override, Allocator *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
module Ef = Edge_fabric
open Helpers

(* A hand-built PoP: one private peer (10G), one public port (10G, with a
   public peer), one transit (100G). Three prefixes with chosen rates let
   each test force exactly the overload it wants.

   pfx_a (10.1.0.0/16): private best, public 2nd, transit 3rd
   pfx_b (10.2.0.0/16): private best, transit 2nd
   pfx_c (10.3.0.0/16): transit only                                       *)
let pfx_a = prefix "10.1.0.0/16"
let pfx_b = prefix "10.2.0.0/16"
let pfx_c = prefix "10.3.0.0/16"

type fixture = {
  pop : N.Pop.t;
  iface_private : N.Iface.t;
  iface_public : N.Iface.t;
  iface_transit : N.Iface.t;
}

let fixture () =
  let pop =
    N.Pop.create ~name:"fix" ~region:N.Region.Na_east ~asn:(Bgp.Asn.of_int 64500) ()
  in
  let policy = Ef_policy.standard_import_map ~self_asn:(Bgp.Asn.of_int 64500) in
  let iface_private =
    N.Pop.add_interface pop ~name:"pni" ~capacity_bps:10e9 ~shared:false
  in
  let iface_public =
    N.Pop.add_interface pop ~name:"ixp" ~capacity_bps:10e9 ~shared:true
  in
  let iface_transit =
    N.Pop.add_interface pop ~name:"transit" ~capacity_bps:100e9 ~shared:false
  in
  let private_peer = peer ~kind:Bgp.Peer.Private_peer ~asn:100 0 in
  let public_peer = peer ~kind:Bgp.Peer.Public_peer ~asn:200 1 in
  let transit_peer = peer ~kind:Bgp.Peer.Transit ~asn:10 2 in
  N.Pop.add_peer pop private_peer ~iface:iface_private ~policy;
  N.Pop.add_peer pop public_peer ~iface:iface_public ~policy;
  N.Pop.add_peer pop transit_peer ~iface:iface_transit ~policy;
  let announce peer_id path p =
    ignore
      (N.Pop.announce pop ~peer_id p
         (attrs ~path ~next_hop:(Printf.sprintf "172.16.0.%d" peer_id) ()))
  in
  announce 0 [ 100 ] pfx_a;
  announce 1 [ 200; 100 ] pfx_a;
  announce 2 [ 10; 100 ] pfx_a;
  announce 0 [ 100; 300 ] pfx_b;
  announce 2 [ 10; 300 ] pfx_b;
  announce 2 [ 10; 400 ] pfx_c;
  { pop; iface_private; iface_public; iface_transit }

let snapshot fx rates = C.Snapshot.of_pop fx.pop ~prefix_rates:rates ~time_s:0

(* --- Config ----------------------------------------------------------- *)

let test_config_default_valid () =
  match Ef.Config.validate Ef.Config.default with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_config_rejects_bad () =
  let bad cfg = Ef.Config.validate cfg = Ok () in
  Alcotest.(check bool) "threshold 0" false
    (bad (Ef.Config.make ~overload_threshold:0.0 ()));
  Alcotest.(check bool) "margin >= threshold" false
    (bad (Ef.Config.make ~release_margin:0.95 ()))

(* an override must win the BGP decision process on LOCAL_PREF alone,
   whatever the tier of the route it displaces *)
let test_override_local_pref_beats_every_tier () =
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        ("above " ^ Bgp.Peer.kind_to_string kind)
        true
        (Ef.Config.override_local_pref > Bgp.Policy.local_pref_for_kind kind))
    Bgp.Peer.[ Transit; Private_peer; Public_peer; Route_server ]

(* --- Projection -------------------------------------------------------- *)

let test_projection_preferred_placement () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 4e9); (pfx_b, 3e9); (pfx_c, 2e9) ] in
  let proj = Ef.Projection.project snap in
  Helpers.check_float "private carries a+b" 7e9
    (Ef.Projection.load_bps proj ~iface_id:(N.Iface.id fx.iface_private));
  Helpers.check_float "transit carries c" 2e9
    (Ef.Projection.load_bps proj ~iface_id:(N.Iface.id fx.iface_transit));
  Helpers.check_float "public idle" 0.0
    (Ef.Projection.load_bps proj ~iface_id:(N.Iface.id fx.iface_public));
  Helpers.check_float "total" 9e9 (Ef.Projection.total_bps proj);
  Helpers.check_float "nothing overridden" 0.0 (Ef.Projection.overridden_bps proj)

let test_projection_override_honoured () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 4e9) ] in
  let transit_route =
    List.find
      (fun r -> Bgp.Route.peer_kind r = Bgp.Peer.Transit)
      (C.Snapshot.routes snap pfx_a)
  in
  let proj =
    Ef.Projection.project
      ~overrides:(fun p -> if Bgp.Prefix.equal p pfx_a then Some transit_route else None)
      snap
  in
  Helpers.check_float "moved to transit" 4e9
    (Ef.Projection.load_bps proj ~iface_id:(N.Iface.id fx.iface_transit));
  Helpers.check_float "overridden accounted" 4e9 (Ef.Projection.overridden_bps proj)

let test_projection_stale_override_falls_back () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_c, 2e9) ] in
  (* an override pointing at a peer that offers no route for pfx_c *)
  let ghost = route ~prefix_str:"10.3.0.0/16" ~peer_id:0 ~kind:Bgp.Peer.Private_peer () in
  let proj =
    Ef.Projection.project
      ~overrides:(fun p -> if Bgp.Prefix.equal p pfx_c then Some ghost else None)
      snap
  in
  Helpers.check_float "fell back to transit" 2e9
    (Ef.Projection.load_bps proj ~iface_id:(N.Iface.id fx.iface_transit));
  Alcotest.(check (list prefix_t)) "reported stale" [ pfx_c ]
    (Ef.Projection.stale_overrides proj)

let test_projection_overloaded_sorted () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 6e9); (pfx_b, 6e9); (pfx_c, 2e9) ] in
  let proj = Ef.Projection.project snap in
  match Ef.Projection.overloaded proj ~threshold:0.95 with
  | [ (iface, util) ] ->
      Alcotest.(check int) "private overloaded" (N.Iface.id fx.iface_private)
        (N.Iface.id iface);
      Helpers.check_float_eps 1e-9 "util" 1.2 util
  | l -> Alcotest.failf "expected one overload, got %d" (List.length l)

let test_projection_move () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_b, 3e9) ] in
  let proj = Ef.Projection.project snap in
  let transit_route =
    List.find
      (fun r -> Bgp.Route.peer_kind r = Bgp.Peer.Transit)
      (C.Snapshot.routes snap pfx_b)
  in
  let moved =
    Ef.Projection.move proj pfx_b ~to_route:transit_route
      ~to_iface:(N.Iface.id fx.iface_transit)
  in
  (* purity: the original projection is unchanged *)
  Helpers.check_float "original intact" 3e9
    (Ef.Projection.load_bps proj ~iface_id:(N.Iface.id fx.iface_private));
  Helpers.check_float "moved off" 0.0
    (Ef.Projection.load_bps moved ~iface_id:(N.Iface.id fx.iface_private));
  Helpers.check_float "moved on" 3e9
    (Ef.Projection.load_bps moved ~iface_id:(N.Iface.id fx.iface_transit));
  match Ef.Projection.placement_of moved pfx_b with
  | Some pl -> Alcotest.(check bool) "flagged overridden" true pl.Ef.Projection.overridden
  | None -> Alcotest.fail "placement lost"

let test_projection_unroutable_counted () =
  let fx = fixture () in
  let unknown = prefix "99.0.0.0/8" in
  let snap = snapshot fx [ (unknown, 7e9); (pfx_c, 1e9) ] in
  let proj = Ef.Projection.project snap in
  Helpers.check_float "unroutable" 7e9 (Ef.Projection.unroutable_bps proj);
  Helpers.check_float "total includes it" 8e9 (Ef.Projection.total_bps proj)

(* --- Override ----------------------------------------------------------- *)

let test_override_announcement_shape () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 1e9) ] in
  let transit_route =
    List.find
      (fun r -> Bgp.Route.peer_kind r = Bgp.Peer.Transit)
      (C.Snapshot.routes snap pfx_a)
  in
  let o =
    Ef.Override.make ~prefix:pfx_a ~target:transit_route ~from_iface:0 ~to_iface:2
      ~preference_level:2 ~rate_bps:1e9
  in
  let update = Ef.Override.to_announcement o ~local_pref:1000 in
  Alcotest.(check (list prefix_t)) "nlri" [ pfx_a ] update.Bgp.Msg.nlri;
  (match update.Bgp.Msg.attrs with
  | None -> Alcotest.fail "no attrs"
  | Some a ->
      Alcotest.(check (option int)) "local pref" (Some 1000) a.Bgp.Attrs.local_pref;
      Alcotest.(check bool) "marker community" true
        (Bgp.Attrs.has_community Ef.Override.override_community a);
      Alcotest.check ipv4_t "next hop is target's" (Bgp.Route.next_hop transit_route)
        a.Bgp.Attrs.next_hop);
  let w = Ef.Override.to_withdrawal o in
  Alcotest.(check (list prefix_t)) "withdrawal" [ pfx_a ] w.Bgp.Msg.withdrawn

let test_override_injection_wins_decision () =
  (* the whole enforcement story: inject the override announcement into
     the PoP RIB via a controller session and check the best path flips *)
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 1e9) ] in
  let transit_route =
    List.find
      (fun r -> Bgp.Route.peer_kind r = Bgp.Peer.Transit)
      (C.Snapshot.routes snap pfx_a)
  in
  let o =
    Ef.Override.make ~prefix:pfx_a ~target:transit_route
      ~from_iface:(N.Iface.id fx.iface_private)
      ~to_iface:(N.Iface.id fx.iface_transit) ~preference_level:2 ~rate_bps:1e9
  in
  (* the controller appears as one more peer session on the router *)
  let controller_peer =
    Bgp.Peer.make ~id:99 ~name:"edge-fabric" ~asn:(Bgp.Asn.of_int 64500)
      ~kind:Bgp.Peer.Private_peer ~router_id:(ip "10.255.0.1")
      ~session_addr:(ip "172.31.0.1")
  in
  Bgp.Rib.add_peer (N.Pop.rib fx.pop) controller_peer ~policy:Bgp.Policy.accept_all;
  let update = Ef.Override.to_announcement o ~local_pref:1000 in
  ignore (Bgp.Rib.apply_update (N.Pop.rib fx.pop) ~peer_id:99 update);
  (match Bgp.Rib.best (N.Pop.rib fx.pop) pfx_a with
  | None -> Alcotest.fail "no best"
  | Some r ->
      Alcotest.(check int) "override wins" 99 (Bgp.Route.peer_id r);
      Alcotest.(check bool) "marked" true (Ef.Override.is_override_route r));
  (* withdrawal restores the original best *)
  ignore
    (Bgp.Rib.apply_update (N.Pop.rib fx.pop) ~peer_id:99 (Ef.Override.to_withdrawal o));
  match Bgp.Rib.best (N.Pop.rib fx.pop) pfx_a with
  | Some r -> Alcotest.(check int) "private again" 0 (Bgp.Route.peer_id r)
  | None -> Alcotest.fail "no best after withdrawal"

let test_override_lookup () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 1e9) ] in
  let transit_route =
    List.find
      (fun r -> Bgp.Route.peer_kind r = Bgp.Peer.Transit)
      (C.Snapshot.routes snap pfx_a)
  in
  let o =
    Ef.Override.make ~prefix:pfx_a ~target:transit_route ~from_iface:0 ~to_iface:2
      ~preference_level:1 ~rate_bps:1.0
  in
  let lookup = Ef.Override.lookup [ o ] in
  Alcotest.(check bool) "finds" true (Option.is_some (lookup pfx_a));
  Alcotest.(check bool) "misses" true (Option.is_none (lookup pfx_b));
  Alcotest.(check (option int)) "level" (Some 1) (Ef.Override.level_of [ o ] pfx_a)

(* --- Allocator ----------------------------------------------------------- *)

let config = Ef.Config.default

let test_allocator_no_overload_no_overrides () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 1e9); (pfx_b, 1e9); (pfx_c, 1e9) ] in
  let result = Ef.Allocator.run ~config snap in
  Alcotest.(check int) "no overrides" 0 (List.length result.Ef.Allocator.overrides);
  Alcotest.(check int) "no residual" 0 (List.length result.Ef.Allocator.residual)

let test_allocator_relieves_overload () =
  let fx = fixture () in
  (* private iface (10G) gets 12G preferred: must shed >= 2.5G to reach 95% *)
  let snap = snapshot fx [ (pfx_a, 8e9); (pfx_b, 4e9); (pfx_c, 1e9) ] in
  let result = Ef.Allocator.run ~config snap in
  Alcotest.(check bool) "made overrides" true (result.Ef.Allocator.overrides <> []);
  Alcotest.(check int) "no residual" 0 (List.length result.Ef.Allocator.residual);
  let util =
    Ef.Projection.utilization result.Ef.Allocator.final fx.iface_private
  in
  Alcotest.(check bool) "private below threshold" true (util <= 0.95 +. 1e-9);
  match Ef.Allocator.check_invariants ~config result with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_allocator_largest_first_moves_one () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 8e9); (pfx_b, 4e9) ] in
  let result = Ef.Allocator.run ~config snap in
  (* moving pfx_a (8G) alone suffices: largest-first needs one override *)
  Alcotest.(check int) "one override" 1 (List.length result.Ef.Allocator.overrides);
  let o = List.hd result.Ef.Allocator.overrides in
  Alcotest.check prefix_t "moved the big one" pfx_a o.Ef.Override.prefix

let test_allocator_prefers_higher_ranked_target () =
  let fx = fixture () in
  (* pfx_a's 2nd choice is the public peer; with room there, the detour
     must go to public (level 1), not transit (level 2) *)
  let snap = snapshot fx [ (pfx_a, 6.5e9); (pfx_b, 5.6e9) ] in
  let result = Ef.Allocator.run ~config snap in
  match result.Ef.Allocator.overrides with
  | [ o ] ->
      Alcotest.check prefix_t "largest moved" pfx_a o.Ef.Override.prefix;
      Alcotest.(check int) "level 1" 1 o.Ef.Override.preference_level;
      Alcotest.(check int) "to public port" (N.Iface.id fx.iface_public)
        o.Ef.Override.to_iface
  | l -> Alcotest.failf "expected one override, got %d" (List.length l)

let test_allocator_skips_full_alternate () =
  let fx = fixture () in
  (* public port nearly full from its own traffic: pfx_a must skip it
     and go to transit (level 2) *)
  let rib = N.Pop.rib fx.pop in
  let extra = prefix "10.9.0.0/16" in
  ignore
    (Bgp.Rib.announce rib ~peer_id:1 extra (attrs ~path:[ 200; 900 ] ~next_hop:"172.16.0.1" ()));
  let snap = snapshot fx [ (pfx_a, 11e9); (extra, 9e9) ] in
  let result = Ef.Allocator.run ~config snap in
  let a_override =
    List.find
      (fun o -> Bgp.Prefix.equal o.Ef.Override.prefix pfx_a)
      result.Ef.Allocator.overrides
  in
  Alcotest.(check int) "to transit" (N.Iface.id fx.iface_transit)
    a_override.Ef.Override.to_iface;
  Alcotest.(check int) "level 2" 2 a_override.Ef.Override.preference_level

let test_allocator_residual_when_no_room () =
  let fx = fixture () in
  (* pfx_c has only the transit route: overload transit and nothing can move *)
  let snap = snapshot fx [ (pfx_c, 99e9) ] in
  let result = Ef.Allocator.run ~config snap in
  Alcotest.(check int) "no overrides possible" 0
    (List.length result.Ef.Allocator.overrides);
  Alcotest.(check int) "one residual" 1 (List.length result.Ef.Allocator.residual)

let test_allocator_single_pass_can_overshoot () =
  let fx = fixture () in
  (* three 7G prefixes prefer private (21G on 10G); each one's best
     alternate is the 10G public port. Relief needs two moves; iterative
     re-projection sends the second to transit, while single-pass decides
     both against the stale (empty) public load and overloads it *)
  let rib = N.Pop.rib fx.pop in
  let pfx_d = prefix "10.4.0.0/16" in
  ignore
    (Bgp.Rib.announce rib ~peer_id:1 pfx_b
       (attrs ~path:[ 200; 300 ] ~next_hop:"172.16.0.1" ()));
  ignore
    (Bgp.Rib.announce rib ~peer_id:0 pfx_d
       (attrs ~path:[ 100; 500 ] ~next_hop:"172.16.0.0" ()));
  ignore
    (Bgp.Rib.announce rib ~peer_id:1 pfx_d
       (attrs ~path:[ 200; 500 ] ~next_hop:"172.16.0.1" ()));
  ignore
    (Bgp.Rib.announce rib ~peer_id:2 pfx_d
       (attrs ~path:[ 10; 500 ] ~next_hop:"172.16.0.2" ()));
  let rates = [ (pfx_a, 7e9); (pfx_b, 7e9); (pfx_d, 7e9) ] in
  let snap = snapshot fx rates in
  let iterative = Ef.Allocator.run ~config snap in
  let single =
    Ef.Allocator.run ~config:{ config with Ef.Config.iterative = false } snap
  in
  let public_util result =
    Ef.Projection.utilization result.Ef.Allocator.final fx.iface_public
  in
  Alcotest.(check bool) "iterative keeps public sane" true
    (public_util iterative <= 0.95 +. 1e-9);
  Alcotest.(check bool) "single-pass overshoots" true (public_util single > 1.0)

let test_allocator_split24 () =
  let fx = fixture () in
  (* pfx_a at 11G fits nowhere whole if both alternates are small; shrink
     the world: public gets 9G of its own, transit capacity reduced via a
     huge background prefix *)
  let rib = N.Pop.rib fx.pop in
  let bg = prefix "10.8.0.0/16" in
  ignore
    (Bgp.Rib.announce rib ~peer_id:2 bg (attrs ~path:[ 10; 800 ] ~next_hop:"172.16.0.2" ()));
  let snap = snapshot fx [ (pfx_a, 11e9); (bg, 91e9) ] in
  (* whole-prefix: pfx_a (11G) cannot fit on public (10G) nor transit
     (runs at 91/100); residual overload remains *)
  let whole = Ef.Allocator.run ~config snap in
  Alcotest.(check bool) "whole prefix stuck" true (whole.Ef.Allocator.residual <> []);
  (* split-24: /16 -> not splittable to /24 in one step? it is: 256 subnets
     exceed the expansion guard? 2^8 = 256 <= 2^20: fine *)
  let split =
    Ef.Allocator.run ~config:{ config with Ef.Config.granularity = Ef.Config.Split_24 } snap
  in
  Alcotest.(check bool) "split helps" true
    (List.length split.Ef.Allocator.residual < 1
    || Ef.Projection.utilization split.Ef.Allocator.final fx.iface_private
       < Ef.Projection.utilization whole.Ef.Allocator.final fx.iface_private);
  Alcotest.(check bool) "splits recorded" true (split.Ef.Allocator.splits > 0)

(* A rated /24 nested in a split prefix keeps its own placement and
   load; the split's children share the parent's rate among the rest. *)
let test_allocator_split24_nested_rated () =
  let fx = fixture () in
  let rib = N.Pop.rib fx.pop in
  let bg = prefix "10.8.0.0/16" in
  let nested = prefix "10.1.7.0/24" in
  ignore
    (Bgp.Rib.announce rib ~peer_id:2 bg (attrs ~path:[ 10; 800 ] ~next_hop:"172.16.0.2" ()));
  ignore
    (Bgp.Rib.announce rib ~peer_id:0 nested (attrs ~path:[ 100 ] ~next_hop:"172.16.0.0" ()));
  let snap = snapshot fx [ (pfx_a, 11e9); (bg, 91e9); (nested, 5e8) ] in
  let split =
    Ef.Allocator.run ~config:{ config with Ef.Config.granularity = Ef.Config.Split_24 } snap
  in
  let final = split.Ef.Allocator.final in
  Alcotest.(check bool) "splits recorded" true (split.Ef.Allocator.splits > 0);
  (match Ef.Projection.placement_of final nested with
  | None -> Alcotest.fail "nested /24 lost its placement"
  | Some pl ->
      Alcotest.(check (float 0.0)) "nested keeps its own rate" 5e8
        pl.Ef.Projection.rate_bps);
  List.iter
    (fun iface ->
      let iface_id = N.Iface.id iface in
      let sum =
        List.fold_left
          (fun acc pl -> acc +. pl.Ef.Projection.rate_bps)
          0.0
          (Ef.Projection.placements_on final ~iface_id)
      in
      Alcotest.(check (float 1.0))
        (Printf.sprintf "iface %d load = its placements" iface_id)
        sum (Ef.Projection.load_bps final ~iface_id))
    [ fx.iface_private; fx.iface_public; fx.iface_transit ];
  Alcotest.(check (float 1.0)) "no rate lost or double-counted" (11e9 +. 91e9 +. 5e8)
    (List.fold_left
       (fun acc pl -> acc +. pl.Ef.Projection.rate_bps)
       0.0 (Ef.Projection.placements final))

(* Split children moved together are re-aggregated, and the block can
   be a rated prefix of its own: here the /22 parent splits, its two low
   /24 children move to the public port and merge into 10.20.0.0/23 —
   the nested rated prefix, which the allocator itself could not move.
   The enforced projection honours that block override on the /23 the
   way a cold projection of the active set does, because the block is a
   split key re-decided from the final image. *)
let test_split_block_on_rated_prefix () =
  let fx = fixture () in
  let parent = prefix "10.20.0.0/22" and block = prefix "10.20.0.0/23" in
  let background = prefix "10.21.0.0/16" in
  let announce peer_id path p =
    ignore
      (N.Pop.announce fx.pop ~peer_id p
         (attrs ~path ~next_hop:(Printf.sprintf "172.16.0.%d" peer_id) ()))
  in
  announce 0 [ 100 ] parent;
  announce 1 [ 200; 100 ] parent;
  announce 0 [ 100 ] block;
  announce 1 [ 200; 100 ] block;
  announce 1 [ 200 ] background;
  (* private carries 13G + 8G; the public port has 7.5G of room: neither
     the parent nor the /23 fits whole, two 3.25G children do *)
  let snap = snapshot fx [ (parent, 13e9); (block, 8e9); (background, 2e9) ] in
  let config = { config with Ef.Config.granularity = Ef.Config.Split_24 } in
  let ctl =
    Ef.Controller.create ~config ~obs:(Ef_obs.Registry.create ()) ~name:"block"
      ()
  in
  let stats = Ef.Controller.cycle ctl snap in
  let alloc = Ef.Controller.allocator_result stats in
  Alcotest.(check (list prefix_t))
    "the children merged into the rated /23" [ block ]
    (List.map (fun o -> o.Ef.Override.prefix) alloc.Ef.Allocator.overrides);
  Alcotest.(check bool) "the block is a split key" true
    (List.exists (Bgp.Prefix.equal block) alloc.Ef.Allocator.split_keys);
  let cold =
    Ef.Projection.project
      ~overrides:(Ef.Override.lookup (Ef.Controller.overrides_enforced stats))
      snap
  in
  Alcotest.(check bool) "the /23 is detoured when enforced" true
    (match Ef.Projection.placement_of (Ef.Controller.enforced stats) block with
    | Some pl -> pl.Ef.Projection.overridden
    | None -> false);
  Alcotest.(check bool) "enforced = cold projection of the active set" true
    (Ef.Controller.enforced stats = cold)

let test_allocator_override_targets_are_candidates () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 8e9); (pfx_b, 4e9); (pfx_c, 1e9) ] in
  let result = Ef.Allocator.run ~config snap in
  List.iter
    (fun o ->
      let parent_candidates =
        (* /24 children inherit the parent's candidates *)
        match C.Snapshot.routes snap o.Ef.Override.prefix with
        | [] ->
            let covering =
              List.find
                (fun p -> Bgp.Prefix.subsumes p o.Ef.Override.prefix)
                [ pfx_a; pfx_b; pfx_c ]
            in
            C.Snapshot.routes snap covering
        | routes -> routes
      in
      Alcotest.(check bool) "target is a candidate" true
        (List.exists
           (fun r -> Bgp.Route.peer_id r = Ef.Override.target_peer_id o)
           parent_candidates))
    result.Ef.Allocator.overrides

(* --- Working projection (the allocator's mutable scratch view) -------- *)

let working_fixture () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 4e9); (pfx_b, 3e9); (pfx_c, 2e9) ] in
  (fx, snap, Ef.Projection.project snap)

let test_working_seal_roundtrip () =
  let fx, _, proj = working_fixture () in
  let w = Ef.Projection.Working.of_projection proj in
  let sealed = Ef.Projection.Working.seal w in
  List.iter
    (fun iface ->
      let id = N.Iface.id iface in
      Helpers.check_float
        (Printf.sprintf "load %d" id)
        (Ef.Projection.load_bps proj ~iface_id:id)
        (Ef.Projection.load_bps sealed ~iface_id:id))
    [ fx.iface_private; fx.iface_public; fx.iface_transit ];
  Helpers.check_float "total" (Ef.Projection.total_bps proj)
    (Ef.Projection.total_bps sealed);
  Alcotest.(check int)
    "placement count"
    (List.length (Ef.Projection.placements proj))
    (List.length (Ef.Projection.placements sealed))

let test_working_move_matches_pure () =
  let fx, snap, proj = working_fixture () in
  let transit_route =
    List.find
      (fun r -> Bgp.Route.peer_kind r = Bgp.Peer.Transit)
      (C.Snapshot.routes snap pfx_a)
  in
  let to_iface = N.Iface.id fx.iface_transit in
  let pure = Ef.Projection.move proj pfx_a ~to_route:transit_route ~to_iface in
  let w = Ef.Projection.Working.of_projection proj in
  Ef.Projection.Working.move w pfx_a ~to_route:transit_route ~to_iface;
  let sealed = Ef.Projection.Working.seal w in
  List.iter
    (fun iface ->
      let id = N.Iface.id iface in
      Helpers.check_float
        (Printf.sprintf "load %d" id)
        (Ef.Projection.load_bps pure ~iface_id:id)
        (Ef.Projection.load_bps sealed ~iface_id:id))
    [ fx.iface_private; fx.iface_public; fx.iface_transit ];
  (* the index moved the placement between interface buckets *)
  Alcotest.(check bool) "gone from private" true
    (List.for_all
       (fun pl -> not (Bgp.Prefix.equal pl.Ef.Projection.placed_prefix pfx_a))
       (Ef.Projection.Working.placements_on w
          ~iface_id:(N.Iface.id fx.iface_private)));
  (match
     List.find_opt
       (fun pl -> Bgp.Prefix.equal pl.Ef.Projection.placed_prefix pfx_a)
       (Ef.Projection.Working.placements_on w ~iface_id:to_iface)
   with
  | None -> Alcotest.fail "pfx_a not on transit bucket"
  | Some pl ->
      Alcotest.(check bool) "marked overridden" true pl.Ef.Projection.overridden);
  (* source projection untouched *)
  Helpers.check_float "source unchanged" 7e9
    (Ef.Projection.load_bps proj ~iface_id:(N.Iface.id fx.iface_private))

let test_working_add_remove () =
  let fx, snap, proj = working_fixture () in
  let w = Ef.Projection.Working.of_projection proj in
  let id = N.Iface.id fx.iface_private in
  let route =
    match C.Snapshot.preferred_route snap pfx_a with
    | Some r -> r
    | None -> Alcotest.fail "no route"
  in
  let child = prefix "10.9.0.0/24" in
  Ef.Projection.Working.add_placement w ~prefix:child ~rate_bps:1e9 ~route
    ~iface_id:id ~overridden:false;
  Helpers.check_float "load grew" 8e9
    (Ef.Projection.Working.load_bps w ~iface_id:id);
  Alcotest.(check int) "bucket grew" 3
    (List.length (Ef.Projection.Working.placements_on w ~iface_id:id));
  Ef.Projection.Working.remove_placement w child;
  Helpers.check_float "load back" 7e9
    (Ef.Projection.Working.load_bps w ~iface_id:id);
  Alcotest.(check int) "bucket back" 2
    (List.length (Ef.Projection.Working.placements_on w ~iface_id:id));
  (* removing an absent prefix is a no-op *)
  Ef.Projection.Working.remove_placement w child;
  Helpers.check_float "still" 7e9 (Ef.Projection.Working.load_bps w ~iface_id:id)

let test_working_drain_touched () =
  let fx, snap, proj = working_fixture () in
  let w = Ef.Projection.Working.of_projection proj in
  Alcotest.(check (list int)) "clean at open" []
    (Ef.Projection.Working.drain_touched w);
  let transit_route =
    List.find
      (fun r -> Bgp.Route.peer_kind r = Bgp.Peer.Transit)
      (C.Snapshot.routes snap pfx_a)
  in
  let to_iface = N.Iface.id fx.iface_transit in
  Ef.Projection.Working.move w pfx_a ~to_route:transit_route ~to_iface;
  let touched = List.sort_uniq compare (Ef.Projection.Working.drain_touched w) in
  Alcotest.(check (list int))
    "both endpoints touched"
    (List.sort_uniq compare [ N.Iface.id fx.iface_private; to_iface ])
    touched;
  Alcotest.(check (list int)) "drained" [] (Ef.Projection.Working.drain_touched w)

let test_placement_order_total () =
  (* equal rates: the prefix tiebreak makes the order total and stable *)
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 3e9); (pfx_b, 3e9) ] in
  let proj = Ef.Projection.project snap in
  let id = N.Iface.id fx.iface_private in
  let order proj =
    List.map
      (fun pl -> Bgp.Prefix.to_string pl.Ef.Projection.placed_prefix)
      (Ef.Projection.placements_on proj ~iface_id:id)
  in
  Alcotest.(check (list string))
    "rate ties break by prefix"
    [ "10.1.0.0/16"; "10.2.0.0/16" ]
    (order proj);
  let w = Ef.Projection.Working.of_projection proj in
  Alcotest.(check (list string))
    "working index agrees"
    (order proj)
    (List.map
       (fun pl -> Bgp.Prefix.to_string pl.Ef.Projection.placed_prefix)
       (Ef.Projection.Working.placements_on w ~iface_id:id))

(* property: on random rate vectors over the generated tiny world, the
   allocator never pushes a previously-fine interface over threshold and
   always leaves relieved interfaces at or below it when it claims no
   residual *)
let qcheck_allocator_invariants =
  let world = N.Topo_gen.generate N.Topo_gen.small_config in
  let prefixes = Array.of_list world.N.Topo_gen.all_prefixes in
  QCheck.Test.make ~name:"allocator invariants on random demand" ~count:60
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 30) (int_bound 1000)))
    (fun (seed, rates) ->
      let rng = Ef_util.Rng.create seed in
      let prefix_rates =
        List.map
          (fun r ->
            let p = prefixes.(Ef_util.Rng.int rng (Array.length prefixes)) in
            (p, float_of_int (r + 1) *. 2e7))
          rates
      in
      (* dedup: last rate wins, as in a snapshot *)
      let tbl = Hashtbl.create 16 in
      List.iter (fun (p, r) -> Hashtbl.replace tbl (Bgp.Prefix.to_string p) (p, r)) prefix_rates;
      let prefix_rates = Hashtbl.fold (fun _ v acc -> v :: acc) tbl [] in
      let snap =
        C.Snapshot.of_pop world.N.Topo_gen.pop ~prefix_rates ~time_s:0
      in
      let result = Ef.Allocator.run ~config snap in
      match Ef.Allocator.check_invariants ~config result with
      | Ok () -> true
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "config default valid" `Quick test_config_default_valid;
    Alcotest.test_case "config rejects bad" `Quick test_config_rejects_bad;
    Alcotest.test_case "override local pref beats every tier" `Quick
      test_override_local_pref_beats_every_tier;
    Alcotest.test_case "projection preferred placement" `Quick
      test_projection_preferred_placement;
    Alcotest.test_case "projection override honoured" `Quick
      test_projection_override_honoured;
    Alcotest.test_case "projection stale override" `Quick
      test_projection_stale_override_falls_back;
    Alcotest.test_case "projection overloaded sorted" `Quick
      test_projection_overloaded_sorted;
    Alcotest.test_case "projection move" `Quick test_projection_move;
    Alcotest.test_case "projection unroutable" `Quick
      test_projection_unroutable_counted;
    Alcotest.test_case "override announcement shape" `Quick
      test_override_announcement_shape;
    Alcotest.test_case "override wins decision" `Quick
      test_override_injection_wins_decision;
    Alcotest.test_case "override lookup" `Quick test_override_lookup;
    Alcotest.test_case "allocator idle" `Quick test_allocator_no_overload_no_overrides;
    Alcotest.test_case "allocator relieves overload" `Quick
      test_allocator_relieves_overload;
    Alcotest.test_case "allocator largest first" `Quick
      test_allocator_largest_first_moves_one;
    Alcotest.test_case "allocator prefers ranked target" `Quick
      test_allocator_prefers_higher_ranked_target;
    Alcotest.test_case "allocator skips full alternate" `Quick
      test_allocator_skips_full_alternate;
    Alcotest.test_case "allocator residual" `Quick
      test_allocator_residual_when_no_room;
    Alcotest.test_case "allocator single-pass overshoot" `Quick
      test_allocator_single_pass_can_overshoot;
    Alcotest.test_case "allocator split-24" `Quick test_allocator_split24;
    Alcotest.test_case "allocator split-24 nested rated" `Quick
      test_allocator_split24_nested_rated;
    Alcotest.test_case "split block on a rated prefix is enforced" `Quick
      test_split_block_on_rated_prefix;
    Alcotest.test_case "allocator targets are candidates" `Quick
      test_allocator_override_targets_are_candidates;
    Alcotest.test_case "working seal roundtrip" `Quick test_working_seal_roundtrip;
    Alcotest.test_case "working move matches pure" `Quick
      test_working_move_matches_pure;
    Alcotest.test_case "working add/remove" `Quick test_working_add_remove;
    Alcotest.test_case "working drain touched" `Quick test_working_drain_touched;
    Alcotest.test_case "placement order is total" `Quick test_placement_order_total;
    QCheck_alcotest.to_alcotest qcheck_allocator_invariants;
  ]
