(* ef_collector: Trace record/replay *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
module Ef = Edge_fabric
open Helpers

let world = lazy (N.Topo_gen.generate N.Topo_gen.small_config)

let sample_snapshot ?(time_s = 72000) () =
  let w = Lazy.force world in
  let rates =
    List.map
      (fun p -> (p, w.N.Topo_gen.prefix_weight p *. w.N.Topo_gen.total_peak_bps))
      w.N.Topo_gen.all_prefixes
  in
  C.Snapshot.of_pop w.N.Topo_gen.pop ~prefix_rates:rates ~time_s

let roundtrip snap =
  match C.Trace.parse (C.Trace.record snap) with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_roundtrip_preserves_rates () =
  let snap = sample_snapshot () in
  let replayed = roundtrip snap in
  Alcotest.(check int) "time" (C.Snapshot.time_s snap) (C.Snapshot.time_s replayed);
  Alcotest.(check int) "prefix count" (C.Snapshot.prefix_count snap)
    (C.Snapshot.prefix_count replayed);
  List.iter2
    (fun (p1, r1) (p2, r2) ->
      Alcotest.check prefix_t "same prefix order" p1 p2;
      Helpers.check_float_eps 0.01 "same rate" r1 r2)
    (C.Snapshot.prefix_rates snap)
    (C.Snapshot.prefix_rates replayed)

let test_roundtrip_preserves_routes () =
  let snap = sample_snapshot () in
  let replayed = roundtrip snap in
  List.iter
    (fun (p, _) ->
      let orig = C.Snapshot.routes snap p in
      let got = C.Snapshot.routes replayed p in
      Alcotest.(check (list int)) "same ranked peers"
        (List.map Bgp.Route.peer_id orig)
        (List.map Bgp.Route.peer_id got);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "same attrs" true
            (Bgp.Attrs.equal (Bgp.Route.attrs a) (Bgp.Route.attrs b)))
        orig got)
    (C.Snapshot.prefix_rates snap)

let test_roundtrip_preserves_ifaces () =
  let snap = sample_snapshot () in
  let replayed = roundtrip snap in
  List.iter2
    (fun a b ->
      Alcotest.(check int) "id" (N.Iface.id a) (N.Iface.id b);
      Alcotest.(check string) "name" (N.Iface.name a) (N.Iface.name b);
      Helpers.check_float "capacity" (N.Iface.capacity_bps a) (N.Iface.capacity_bps b);
      Alcotest.(check bool) "shared" (N.Iface.shared a) (N.Iface.shared b))
    (C.Snapshot.ifaces snap)
    (C.Snapshot.ifaces replayed);
  (* the peer -> interface mapping survives too *)
  List.iter
    (fun (p, _) ->
      match C.Snapshot.preferred_route snap p with
      | None -> ()
      | Some r -> (
          let peer_id = Bgp.Route.peer_id r in
          match
            ( C.Snapshot.iface_of_peer snap ~peer_id,
              C.Snapshot.iface_of_peer replayed ~peer_id )
          with
          | Some a, Some b -> Alcotest.(check int) "iface" (N.Iface.id a) (N.Iface.id b)
          | None, None -> ()
          | _ -> Alcotest.fail "iface mapping lost"))
    (C.Snapshot.prefix_rates snap)

let test_controller_decisions_replayable () =
  (* the property that makes traces useful: the controller reaches the
     same decisions on the replayed snapshot *)
  let snap = sample_snapshot () in
  let replayed = roundtrip snap in
  let decide s =
    let result = Ef.Allocator.run ~config:Ef.Config.default s in
    List.map
      (fun (o : Ef.Override.t) ->
        (Bgp.Prefix.to_string o.Ef.Override.prefix, Ef.Override.target_peer_id o))
      result.Ef.Allocator.overrides
  in
  Alcotest.(check (list (pair string int))) "same overrides" (decide snap)
    (decide replayed)

let test_record_many_parse_many () =
  let s1 = sample_snapshot ~time_s:100 () in
  let s2 = sample_snapshot ~time_s:200 () in
  match C.Trace.parse_many (C.Trace.record_many [ s1; s2 ]) with
  | Error e -> Alcotest.fail e
  | Ok l ->
      Alcotest.(check (list int)) "times" [ 100; 200 ]
        (List.map C.Snapshot.time_s l)

let test_save_load () =
  let path = Filename.temp_file "ef_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let snap = sample_snapshot () in
      C.Trace.save path [ snap ];
      match C.Trace.load path with
      | Error e -> Alcotest.fail e
      | Ok [ replayed ] ->
          Alcotest.(check int) "prefixes" (C.Snapshot.prefix_count snap)
            (C.Snapshot.prefix_count replayed)
      | Ok l -> Alcotest.failf "expected 1 snapshot, got %d" (List.length l))

let check_error text fragment =
  match C.Trace.parse_many text with
  | Ok _ -> Alcotest.failf "accepted %S" text
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" msg fragment)
        true
        (Helpers.string_contains ~needle:fragment msg)

let test_parse_errors_are_located () =
  check_error "END\n" "END without SNAPSHOT";
  check_error "SNAPSHOT time=1\nSNAPSHOT time=2\n" "nested";
  check_error "SNAPSHOT time=1\n" "unterminated";
  check_error "SNAPSHOT time=1\nBOGUS x=1\nEND\n" "unknown keyword";
  check_error "SNAPSHOT time=1\nRATE nonsense\nEND\n" "RATE wants";
  check_error
    "SNAPSHOT time=1\nROUTE 10.0.0.0/8 peer=9 origin=IGP path=1 nh=1.2.3.4 med=- lp=- comms=-\nEND\n"
    "unknown peer"

(* IFACE value errors name their line and field, like every other field *)
let test_bad_iface_capacity_located () =
  check_error
    "SNAPSHOT time=1\nIFACE id=0 name=a capacity=fast shared=false\nEND\n"
    "line 2: bad capacity \"fast\""

let test_bad_iface_shared_located () =
  check_error
    "SNAPSHOT time=1\nIFACE id=0 name=a capacity=1e9 shared=maybe\nEND\n"
    "line 2: bad shared \"maybe\""

let test_comments_and_blank_lines_ok () =
  let text =
    "# a trace\n\nSNAPSHOT time=5\n# no content\nEND\n\n"
  in
  match C.Trace.parse_many text with
  | Ok [ s ] -> Alcotest.(check int) "time" 5 (C.Snapshot.time_s s)
  | Ok _ | Error _ -> Alcotest.fail "comment handling broken"

let suite =
  [
    Alcotest.test_case "roundtrip rates" `Quick test_roundtrip_preserves_rates;
    Alcotest.test_case "roundtrip routes" `Quick test_roundtrip_preserves_routes;
    Alcotest.test_case "roundtrip ifaces" `Quick test_roundtrip_preserves_ifaces;
    Alcotest.test_case "controller replayable" `Quick
      test_controller_decisions_replayable;
    Alcotest.test_case "record/parse many" `Quick test_record_many_parse_many;
    Alcotest.test_case "save/load" `Quick test_save_load;
    Alcotest.test_case "parse errors located" `Quick test_parse_errors_are_located;
    Alcotest.test_case "bad IFACE capacity located" `Quick
      test_bad_iface_capacity_located;
    Alcotest.test_case "bad IFACE shared located" `Quick
      test_bad_iface_shared_located;
    Alcotest.test_case "comments ok" `Quick test_comments_and_blank_lines_ok;
  ]
