(* ef_collector: Bmp codec, Monitor, Snmp, Snapshot *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
open Helpers

let bmp_t = Alcotest.testable C.Bmp.pp C.Bmp.equal

let header =
  {
    C.Bmp.peer_id = 3;
    peer_addr = ip "172.16.0.3";
    peer_asn = Bgp.Asn.of_int 64501;
    peer_bgp_id = ip "10.0.0.3";
    timestamp_s = 123456;
  }

let bmp_roundtrip msg =
  let wire = C.Bmp.encode msg in
  match C.Bmp.decode wire with
  | Error e -> Alcotest.failf "decode: %s" (Format.asprintf "%a" C.Bmp.pp_error e)
  | Ok (decoded, consumed) ->
      Alcotest.(check int) "consumed" (String.length wire) consumed;
      decoded

let test_bmp_initiation_roundtrip () =
  let msg = C.Bmp.Initiation { sys_name = "pr1.pop-a"; sys_descr = "edge-fabric" } in
  Alcotest.check bmp_t "initiation" msg (bmp_roundtrip msg)

let test_bmp_termination_roundtrip () =
  let msg = C.Bmp.Termination { reason = 1 } in
  Alcotest.check bmp_t "termination" msg (bmp_roundtrip msg)

let test_bmp_peer_up_roundtrip () =
  let msg =
    C.Bmp.Peer_up
      { header; local_addr = ip "10.0.0.1"; local_port = 179; remote_port = 33001 }
  in
  Alcotest.check bmp_t "peer up" msg (bmp_roundtrip msg)

let test_bmp_peer_down_roundtrip () =
  let msg = C.Bmp.Peer_down { header; reason = 2 } in
  Alcotest.check bmp_t "peer down" msg (bmp_roundtrip msg)

let test_bmp_route_monitoring_roundtrip () =
  let update =
    {
      Bgp.Msg.withdrawn = [ prefix "10.9.0.0/16" ];
      attrs =
        Some
          (attrs ~med:(Some 10) ~local_pref:(Some 300)
             ~communities:[ Bgp.Community.make 65000 911 ]
             ~path:[ 64501; 7 ] ());
      nlri = [ prefix "203.0.113.0/24" ];
    }
  in
  let msg = C.Bmp.Route_monitoring { header; update } in
  Alcotest.check bmp_t "route monitoring" msg (bmp_roundtrip msg)

let test_bmp_stats_roundtrip () =
  let msg = C.Bmp.Stats_report { header; routes_monitored = 12345 } in
  Alcotest.check bmp_t "stats" msg (bmp_roundtrip msg)

let test_bmp_decode_all () =
  let msgs =
    [
      C.Bmp.Initiation { sys_name = "x"; sys_descr = "y" };
      C.Bmp.Peer_up
        { header; local_addr = ip "10.0.0.1"; local_port = 179; remote_port = 3 };
      C.Bmp.Peer_down { header; reason = 1 };
    ]
  in
  let wire = String.concat "" (List.map C.Bmp.encode msgs) in
  match C.Bmp.decode_all wire with
  | Error _ -> Alcotest.fail "decode_all failed"
  | Ok decoded -> Alcotest.(check (list bmp_t)) "all" msgs decoded

let test_bmp_bad_version () =
  let wire = Bytes.of_string (C.Bmp.encode (C.Bmp.Termination { reason = 0 })) in
  Bytes.set wire 0 '\x02';
  match C.Bmp.decode (Bytes.to_string wire) with
  | Error (C.Bmp.Bad_version 2) -> ()
  | _ -> Alcotest.fail "accepted bad version"

let test_bmp_truncated () =
  let wire = C.Bmp.encode (C.Bmp.Termination { reason = 0 }) in
  match C.Bmp.decode (String.sub wire 0 3) with
  | Error C.Bmp.Truncated -> ()
  | _ -> Alcotest.fail "expected truncated"

(* --- Monitor: BMP mirror reproduces the PoP RIB ----------------------- *)

let test_monitor_mirror_roundtrip () =
  let world = N.Topo_gen.generate N.Topo_gen.small_config in
  let pop = world.N.Topo_gen.pop in
  let msgs = C.Monitor.mirror_of_pop pop ~time_s:42 in
  let wire = String.concat "" (List.map C.Bmp.encode msgs) in
  let monitor =
    C.Monitor.create
      ~peer_directory:(fun id -> N.Pop.peer pop id)
      ~policy:(Ef_policy.standard_import_map ~self_asn:(N.Pop.asn pop))
      ()
  in
  (match C.Monitor.feed_bytes monitor wire with
  | Ok () -> ()
  | Error e -> Alcotest.failf "feed: %s" (Format.asprintf "%a" C.Bmp.pp_error e));
  let orig = N.Pop.rib pop and mirror = C.Monitor.rib monitor in
  Alcotest.(check int) "same prefix count" (Bgp.Rib.prefix_count orig)
    (Bgp.Rib.prefix_count mirror);
  Alcotest.(check int) "same route count" (Bgp.Rib.route_count orig)
    (Bgp.Rib.route_count mirror);
  (* spot-check: best routes agree everywhere *)
  List.iter
    (fun p ->
      match (Bgp.Rib.best orig p, Bgp.Rib.best mirror p) with
      | Some a, Some b ->
          Alcotest.(check int)
            (Bgp.Prefix.to_string p)
            (Bgp.Route.peer_id a) (Bgp.Route.peer_id b)
      | None, None -> ()
      | _ -> Alcotest.failf "best mismatch for %s" (Bgp.Prefix.to_string p))
    world.N.Topo_gen.all_prefixes

let test_monitor_unknown_peer_ignored () =
  let monitor =
    C.Monitor.create
      ~peer_directory:(fun _ -> None)
      ~policy:Bgp.Policy.accept_all ()
  in
  C.Monitor.feed_msg monitor
    (C.Bmp.Peer_up
       { header; local_addr = ip "10.0.0.1"; local_port = 179; remote_port = 1 });
  Alcotest.(check int) "ignored" 1 (C.Monitor.msgs_ignored monitor);
  Alcotest.(check int) "no peers" 0 (List.length (C.Monitor.peers_seen monitor))

let test_monitor_peer_down_flushes () =
  let p = peer ~kind:Bgp.Peer.Transit ~asn:64501 3 in
  let monitor =
    C.Monitor.create
      ~peer_directory:(fun id -> if id = 3 then Some p else None)
      ~policy:Bgp.Policy.accept_all ()
  in
  let update =
    { Bgp.Msg.withdrawn = []; attrs = Some (attrs ()); nlri = [ prefix "10.0.0.0/8" ] }
  in
  C.Monitor.feed_msg monitor (C.Bmp.Route_monitoring { header; update });
  Alcotest.(check int) "route present" 1 (Bgp.Rib.prefix_count (C.Monitor.rib monitor));
  C.Monitor.feed_msg monitor (C.Bmp.Peer_down { header; reason = 1 });
  Alcotest.(check int) "flushed" 0 (Bgp.Rib.prefix_count (C.Monitor.rib monitor))

(* --- Snmp -------------------------------------------------------------- *)

let two_ifaces () =
  [
    N.Iface.make ~id:0 ~name:"a" ~capacity_bps:10e9 ~shared:false;
    N.Iface.make ~id:1 ~name:"b" ~capacity_bps:100e9 ~shared:true;
  ]

let test_snmp_first_poll_zero () =
  let snmp = C.Snmp.create (two_ifaces ()) in
  C.Snmp.account_rate snmp ~iface_id:0 ~rate_bps:5e9 ~interval_s:30.0;
  let polls = C.Snmp.poll snmp ~interval_s:30.0 in
  List.iter
    (fun p -> Helpers.check_float "first poll zero" 0.0 p.C.Snmp.out_bps)
    polls

let test_snmp_rate_from_delta () =
  let snmp = C.Snmp.create (two_ifaces ()) in
  ignore (C.Snmp.poll snmp ~interval_s:30.0);
  C.Snmp.account_rate snmp ~iface_id:0 ~rate_bps:5e9 ~interval_s:30.0;
  let polls = C.Snmp.poll snmp ~interval_s:30.0 in
  (match polls with
  | [ p0; p1 ] ->
      Helpers.check_float_eps 1.0 "rate recovered" 5e9 p0.C.Snmp.out_bps;
      Helpers.check_float_eps 1e-9 "utilization" 0.5 p0.C.Snmp.utilization;
      Helpers.check_float "idle iface" 0.0 p1.C.Snmp.out_bps
  | _ -> Alcotest.fail "expected two polls")

let test_snmp_counter_reset () =
  let snmp = C.Snmp.create (two_ifaces ()) in
  C.Snmp.account_rate snmp ~iface_id:0 ~rate_bps:5e9 ~interval_s:30.0;
  ignore (C.Snmp.poll snmp ~interval_s:30.0);
  C.Snmp.reset snmp ~iface_id:0;
  C.Snmp.account_rate snmp ~iface_id:0 ~rate_bps:1e9 ~interval_s:30.0;
  (* counter went backwards: a reset, not a negative rate *)
  let polls = C.Snmp.poll snmp ~interval_s:30.0 in
  List.iter
    (fun p ->
      if p.C.Snmp.out_bps < 0.0 then Alcotest.fail "negative rate after reset")
    polls

let test_snmp_unknown_iface () =
  let snmp = C.Snmp.create (two_ifaces ()) in
  Alcotest.check_raises "unknown" (Invalid_argument "Snmp: unknown interface 9")
    (fun () -> C.Snmp.account_bytes snmp ~iface_id:9 ~bytes:1.0)

(* --- Snapshot ----------------------------------------------------------- *)

let test_snapshot_of_pop () =
  let world = N.Topo_gen.generate N.Topo_gen.small_config in
  let pop = world.N.Topo_gen.pop in
  let rates =
    List.map (fun p -> (p, world.N.Topo_gen.prefix_weight p *. 1e9))
      world.N.Topo_gen.all_prefixes
  in
  let snap = C.Snapshot.of_pop pop ~prefix_rates:rates ~time_s:77 in
  Alcotest.(check int) "time" 77 (C.Snapshot.time_s snap);
  Alcotest.(check int) "prefixes" (List.length rates) (C.Snapshot.prefix_count snap);
  (* rates sorted descending *)
  let sorted = List.map snd (C.Snapshot.prefix_rates snap) in
  Alcotest.(check bool) "descending" true
    (sorted = List.sort (fun a b -> compare b a) sorted);
  (* routes are ranked: head is the RIB best *)
  List.iter
    (fun p ->
      match (C.Snapshot.preferred_route snap p, Bgp.Rib.best (N.Pop.rib pop) p) with
      | Some a, Some b ->
          Alcotest.(check int) "same best" (Bgp.Route.peer_id a) (Bgp.Route.peer_id b)
      | None, None -> ()
      | _ -> Alcotest.fail "preferred mismatch")
    world.N.Topo_gen.all_prefixes

(* A snapshot's route view is the RIB as it stood at build time: a later
   withdrawal reaches neither a prefix already asked nor prefixes never
   asked, nor a cold projection of the old snapshot. Only a fresh
   snapshot sees it. *)
let test_snapshot_route_view_fixed () =
  let world = N.Topo_gen.generate N.Topo_gen.small_config in
  let pop = world.N.Topo_gen.pop in
  let rib = N.Pop.rib pop in
  let prefixes = world.N.Topo_gen.all_prefixes in
  let rates =
    List.map (fun p -> (p, world.N.Topo_gen.prefix_weight p *. 1e9)) prefixes
  in
  let peers_of = List.map Bgp.Route.peer_id in
  let ranking_now p = peers_of (Bgp.Rib.ranked rib p) in
  let built = List.map (fun p -> (p, ranking_now p)) prefixes in
  let snap = C.Snapshot.of_pop pop ~prefix_rates:rates ~time_s:0 in
  let asked = List.hd prefixes in
  let victim =
    match C.Snapshot.preferred_route snap asked with
    | Some r -> Bgp.Route.peer_id r
    | None -> Alcotest.fail "no route for the asked prefix"
  in
  Alcotest.(check bool) "the victim also carries prefixes never asked" true
    (List.exists
       (fun (p, peers) -> (not (Bgp.Prefix.equal p asked)) && List.mem victim peers)
       built);
  ignore (Bgp.Rib.drop_peer rib ~peer_id:victim);
  Alcotest.(check bool) "the RIB lost the victim's routes" true
    (List.for_all (fun p -> not (List.mem victim (ranking_now p))) prefixes);
  List.iter
    (fun (p, peers) ->
      Alcotest.(check (list int))
        ("old snapshot, " ^ Bgp.Prefix.to_string p)
        peers
        (peers_of (C.Snapshot.routes snap p)))
    built;
  let proj = Edge_fabric.Projection.project snap in
  List.iter
    (fun (p, peers) ->
      let what = "old snapshot's projection, " ^ Bgp.Prefix.to_string p in
      match (peers, Edge_fabric.Projection.placement_of proj p) with
      | [], None -> ()
      | best :: _, Some pl ->
          Alcotest.(check int) what best
            (Bgp.Route.peer_id pl.Edge_fabric.Projection.route)
      | _ -> Alcotest.fail (what ^ ": placed iff routed"))
    built;
  let fresh = C.Snapshot.of_pop pop ~prefix_rates:rates ~time_s:30 in
  List.iter
    (fun p ->
      Alcotest.(check (list int))
        ("fresh snapshot, " ^ Bgp.Prefix.to_string p)
        (ranking_now p)
        (peers_of (C.Snapshot.routes fresh p)))
    prefixes

let test_snapshot_drops_zero_rates () =
  let world = N.Topo_gen.generate N.Topo_gen.small_config in
  let pop = world.N.Topo_gen.pop in
  let p0 = List.nth world.N.Topo_gen.all_prefixes 0 in
  let p1 = List.nth world.N.Topo_gen.all_prefixes 1 in
  let snap =
    C.Snapshot.of_pop pop ~prefix_rates:[ (p0, 0.0); (p1, 5.0) ] ~time_s:0
  in
  Alcotest.(check int) "only one" 1 (C.Snapshot.prefix_count snap);
  Helpers.check_float "rate_of zero" 0.0 (C.Snapshot.rate_of snap p0);
  Helpers.check_float "rate_of kept" 5.0 (C.Snapshot.rate_of snap p1)

(* duplicated prefixes in an assembled table: each entry sets its
   prefix's rate in list order, so the last one wins — the same rule
   [patch] applies to [rate_updates], which is what keeps a patched
   snapshot equal to a fresh assemble of its content *)
let test_snapshot_duplicates_last_wins () =
  let world = N.Topo_gen.generate N.Topo_gen.small_config in
  let pop = world.N.Topo_gen.pop in
  let p = List.nth world.N.Topo_gen.all_prefixes 0 in
  let q = List.nth world.N.Topo_gen.all_prefixes 1 in
  let of_rates rates = C.Snapshot.of_pop pop ~prefix_rates:rates ~time_s:0 in
  let check_content what snap rates =
    Alcotest.(check int) (what ^ ": count") (List.length rates)
      (C.Snapshot.prefix_count snap);
    Helpers.check_float (what ^ ": total")
      (List.fold_left (fun acc (_, r) -> acc +. r) 0.0 rates)
      (C.Snapshot.total_rate_bps snap);
    Alcotest.(check (list (pair Helpers.prefix_t (float 0.0))))
      (what ^ ": prefix_rates") rates (C.Snapshot.prefix_rates snap);
    List.iter
      (fun (x, r) ->
        Helpers.check_float (what ^ ": rate_of") r (C.Snapshot.rate_of snap x))
      rates;
    let proj = Edge_fabric.Projection.project snap in
    List.iter
      (fun (x, r) ->
        match Edge_fabric.Projection.placement_of proj x with
        | Some pl ->
            Helpers.check_float (what ^ ": placed rate") r
              pl.Edge_fabric.Projection.rate_bps
        | None -> Alcotest.fail (what ^ ": prefix not placed"))
      rates
  in
  let dup = of_rates [ (p, 2.0); (q, 5.0); (p, 1.0) ] in
  check_content "duplicate" dup [ (q, 5.0); (p, 1.0) ];
  (* a later non-positive entry unrates; a later positive one re-rates *)
  check_content "withdrawn" (of_rates [ (p, 2.0); (q, 5.0); (p, 0.0) ]) [ (q, 5.0) ];
  check_content "re-rated" (of_rates [ (p, 0.0); (q, 5.0); (p, 3.0) ])
    [ (q, 5.0); (p, 3.0) ];
  let patched =
    C.Snapshot.patch ~prev:dup ~rate_updates:[ (p, 4.0) ] ~time_s:30 ()
  in
  check_content "patched" patched [ (q, 5.0); (p, 4.0) ];
  Alcotest.(check bool) "patched total = assembled total" true
    (C.Snapshot.total_rate_millibps patched
    = C.Snapshot.total_rate_millibps (of_rates [ (p, 4.0); (q, 5.0) ]));
  (* repeated updates inside one patch follow the same rule *)
  let repatched =
    C.Snapshot.patch ~prev:dup ~rate_updates:[ (p, 4.0); (p, 0.5) ] ~time_s:30 ()
  in
  check_content "repatched" repatched [ (q, 5.0); (p, 0.5) ];
  match (C.Snapshot.diff dup repatched).C.Snapshot.changes with
  | [ c ] ->
      Alcotest.(check (option (float 0.0))) "old" (Some 1.0) c.C.Snapshot.ch_old_rate;
      Alcotest.(check (option (float 0.0))) "new" (Some 0.5) c.C.Snapshot.ch_new_rate
  | l -> Alcotest.failf "expected one change record, got %d" (List.length l)

(* a prefix both rate-updated and rerouted in one patch is one record
   with the routes flag set; rerouted-only prefixes (including one whose
   rate update was a no-op) get records of their own, ahead of the rate
   records, in reverse [routes_changed] order *)
let test_snapshot_patch_overlapping_events () =
  let world = N.Topo_gen.generate N.Topo_gen.small_config in
  let pop = world.N.Topo_gen.pop in
  let nth = List.nth world.N.Topo_gen.all_prefixes in
  let p = nth 0 and q = nth 1 and r = nth 2 and s = nth 3 in
  let prev =
    C.Snapshot.of_pop pop ~prefix_rates:[ (p, 2.0); (q, 5.0); (s, 1.0) ] ~time_s:0
  in
  let record (c : C.Snapshot.change) =
    ( Bgp.Prefix.to_string c.C.Snapshot.ch_prefix,
      c.C.Snapshot.ch_old_rate,
      c.C.Snapshot.ch_new_rate,
      c.C.Snapshot.ch_routes )
  in
  let diff ~rate_updates ~routes_changed =
    let next =
      C.Snapshot.patch ~prev ~rate_updates ~routes_changed ~time_s:30 ()
    in
    List.map record (C.Snapshot.diff prev next).C.Snapshot.changes
  in
  let changes = Alcotest.(list (pair string (pair (option (float 0.0)) (pair (option (float 0.0)) bool)))) in
  let flat = List.map (fun (a, b, c, d) -> (a, (b, (c, d)))) in
  Alcotest.check changes "overlap: one record, routes flagged"
    (flat [ (Bgp.Prefix.to_string p, Some 2.0, Some 3.0, true) ])
    (flat (diff ~rate_updates:[ (p, 3.0) ] ~routes_changed:[ p ]));
  Alcotest.check changes "mixed"
    (flat
       [
         (Bgp.Prefix.to_string r, None, None, true);
         (Bgp.Prefix.to_string q, Some 5.0, Some 5.0, true);
         (Bgp.Prefix.to_string p, Some 2.0, Some 3.0, true);
         (Bgp.Prefix.to_string s, Some 1.0, None, false);
       ])
    (flat
       (diff
          ~rate_updates:[ (p, 3.0); (q, 5.0); (s, 0.0) ]
          ~routes_changed:[ p; q; r; p ]))

let test_snapshot_iface_of_route () =
  let world = N.Topo_gen.generate N.Topo_gen.small_config in
  let pop = world.N.Topo_gen.pop in
  let p = List.hd world.N.Topo_gen.all_prefixes in
  let snap = C.Snapshot.of_pop pop ~prefix_rates:[ (p, 1.0) ] ~time_s:0 in
  match C.Snapshot.preferred_route snap p with
  | None -> Alcotest.fail "no route"
  | Some r -> (
      match C.Snapshot.iface_of_route snap r with
      | None -> Alcotest.fail "no iface"
      | Some iface ->
          Alcotest.(check int) "consistent with pop" (N.Iface.id iface)
            (N.Iface.id (N.Pop.iface_of_peer pop ~peer_id:(Bgp.Route.peer_id r))))

let suite =
  [
    Alcotest.test_case "bmp initiation" `Quick test_bmp_initiation_roundtrip;
    Alcotest.test_case "bmp termination" `Quick test_bmp_termination_roundtrip;
    Alcotest.test_case "bmp peer up" `Quick test_bmp_peer_up_roundtrip;
    Alcotest.test_case "bmp peer down" `Quick test_bmp_peer_down_roundtrip;
    Alcotest.test_case "bmp route monitoring" `Quick
      test_bmp_route_monitoring_roundtrip;
    Alcotest.test_case "bmp stats" `Quick test_bmp_stats_roundtrip;
    Alcotest.test_case "bmp decode_all" `Quick test_bmp_decode_all;
    Alcotest.test_case "bmp bad version" `Quick test_bmp_bad_version;
    Alcotest.test_case "bmp truncated" `Quick test_bmp_truncated;
    Alcotest.test_case "monitor mirror roundtrip" `Quick
      test_monitor_mirror_roundtrip;
    Alcotest.test_case "monitor unknown peer" `Quick
      test_monitor_unknown_peer_ignored;
    Alcotest.test_case "monitor peer down flushes" `Quick
      test_monitor_peer_down_flushes;
    Alcotest.test_case "snmp first poll zero" `Quick test_snmp_first_poll_zero;
    Alcotest.test_case "snmp rate from delta" `Quick test_snmp_rate_from_delta;
    Alcotest.test_case "snmp counter reset" `Quick test_snmp_counter_reset;
    Alcotest.test_case "snmp unknown iface" `Quick test_snmp_unknown_iface;
    Alcotest.test_case "snapshot of pop" `Quick test_snapshot_of_pop;
    Alcotest.test_case "snapshot route view fixed at build" `Quick
      test_snapshot_route_view_fixed;
    Alcotest.test_case "snapshot drops zero rates" `Quick
      test_snapshot_drops_zero_rates;
    Alcotest.test_case "snapshot iface of route" `Quick test_snapshot_iface_of_route;
    Alcotest.test_case "snapshot duplicates last wins" `Quick
      test_snapshot_duplicates_last_wins;
    Alcotest.test_case "snapshot patch overlapping events" `Quick
      test_snapshot_patch_overlapping_events;
  ]
