(* Quickstart: the whole Edge Fabric loop on a PoP you build by hand.

   Run with:  dune exec examples/quickstart.exe

   We construct a PoP with three egress options, feed it routes, offer it
   more traffic than the preferred interface can carry, and run one
   controller cycle. The controller detours just enough traffic, and the
   enforcement is plain BGP: an UPDATE with a high LOCAL_PREF. *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
module Ef = Edge_fabric

let () =
  (* 1. A PoP with a private interconnect (10G), a shared IXP port (10G)
     and a transit provider (100G). *)
  let pop =
    N.Pop.create ~name:"demo" ~region:N.Region.Na_east
      ~asn:(Bgp.Asn.of_int 64500) ()
  in
  let policy = Ef_policy.standard_import_map ~self_asn:(Bgp.Asn.of_int 64500) in
  let pni = N.Pop.add_interface pop ~name:"pni-eyeball" ~capacity_bps:10e9 ~shared:false in
  let ixp = N.Pop.add_interface pop ~name:"ixp-port" ~capacity_bps:10e9 ~shared:true in
  let transit = N.Pop.add_interface pop ~name:"transit" ~capacity_bps:100e9 ~shared:false in

  let mk_peer id name kind asn =
    Bgp.Peer.make ~id ~name ~asn:(Bgp.Asn.of_int asn) ~kind
      ~router_id:(Bgp.Ipv4.of_octets 10 0 0 id)
      ~session_addr:(Bgp.Ipv4.of_octets 172 16 0 id)
  in
  let eyeball = mk_peer 0 "eyeball-isp" Bgp.Peer.Private_peer 100 in
  let ixp_peer = mk_peer 1 "regional-isp" Bgp.Peer.Public_peer 200 in
  let transit_peer = mk_peer 2 "transit-isp" Bgp.Peer.Transit 10 in
  N.Pop.add_peer pop eyeball ~iface:pni ~policy;
  N.Pop.add_peer pop ixp_peer ~iface:ixp ~policy;
  N.Pop.add_peer pop transit_peer ~iface:transit ~policy;

  (* 2. Routes: the eyeball's prefix is reachable via all three neighbors.
     The ingest policy prefers the private peer over public over transit. *)
  let prefix = Bgp.Prefix.v "203.0.113.0/24" in
  let announce peer path =
    let attrs =
      Bgp.Attrs.make
        ~as_path:(Bgp.As_path.of_list (List.map Bgp.Asn.of_int path))
        ~next_hop:peer.Bgp.Peer.session_addr ()
    in
    ignore (N.Pop.announce pop ~peer_id:(Bgp.Peer.id peer) prefix attrs)
  in
  announce eyeball [ 100 ];
  announce ixp_peer [ 200; 100 ];
  announce transit_peer [ 10; 100 ];

  Format.printf "Candidate routes for %a (decision order):@." Bgp.Prefix.pp prefix;
  List.iteri
    (fun i r -> Format.printf "  #%d via %a@." i Bgp.Peer.pp (Bgp.Route.peer r))
    (Bgp.Rib.ranked (N.Pop.rib pop) prefix);

  (* 3. Offered load: 12 Gbps of demand to a 10G preferred interface. *)
  let snapshot = C.Snapshot.of_pop pop ~prefix_rates:[ (prefix, 12e9) ] ~time_s:0 in
  let controller = Ef.Controller.create ~name:"demo" () in
  let stats = Ef.Controller.cycle controller snapshot in

  Format.printf "@.Projected BGP-only utilization: pni %.2f@."
    (Ef.Projection.utilization (Ef.Controller.preferred stats) pni);
  Format.printf "After Edge Fabric:               pni %.2f  ixp %.2f  transit %.2f@."
    (Ef.Projection.utilization (Ef.Controller.enforced stats) pni)
    (Ef.Projection.utilization (Ef.Controller.enforced stats) ixp)
    (Ef.Projection.utilization (Ef.Controller.enforced stats) transit);

  Format.printf "@.Overrides:@.";
  List.iter
    (fun o -> Format.printf "  %a@." Ef.Override.pp o)
    (Ef.Controller.overrides_enforced stats);

  Format.printf "@.The BGP message that enforces it:@.";
  List.iter
    (fun u -> Format.printf "  %a@." Bgp.Msg.pp (Bgp.Msg.Update u))
    (Ef.Controller.bgp_updates stats);

  (* 4. And the wire bytes are real: encode and decode them. *)
  match Ef.Controller.bgp_updates stats with
  | [] -> ()
  | u :: _ ->
      let wire = Bgp.Codec.encode (Bgp.Msg.Update u) in
      Format.printf "@.On the wire: %d bytes; decodes back: %b@."
        (String.length wire)
        (match Bgp.Codec.decode wire with
        | Ok (Bgp.Msg.Update u', _) -> Bgp.Msg.equal (Bgp.Msg.Update u) (Bgp.Msg.Update u')
        | Ok _ | Error _ -> false)
