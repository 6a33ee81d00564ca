(* Golden wire images: exact byte-level expectations for the codecs.

   Expected bytes live in committed files under test/golden/*.hex (hex,
   one line per image), originally computed by hand from RFC 4271/6396 —
   they pin the wire format so a refactor that still round-trips but
   changes the encoding (field order, widths, flags) is caught.

   On mismatch the failure shows both images and how to regenerate; when
   a wire-format change is intentional, refresh the files with

     GOLDEN_UPDATE=1 dune exec test/main.exe -- test golden

   from the repository root (running under plain `dune runtest` only
   rewrites the sandboxed copies). *)

module Bgp = Ef_bgp
open Helpers

let hex_of_string s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s))))

(* the goldens live in test/golden relative to the repo root and in
   golden/ relative to the dune test sandbox; find whichever exists *)
let golden_dir =
  lazy
    (List.find_opt
       (fun d -> Sys.file_exists d && Sys.is_directory d)
       [ "golden"; "test/golden" ])

let golden_path name =
  match Lazy.force golden_dir with
  | Some d -> Filename.concat d (name ^ ".hex")
  | None -> Alcotest.fail "no golden directory found (golden/ or test/golden/)"

let read_golden name =
  let path = golden_path name in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some (String.trim contents)
  end

let regenerate_hint = "GOLDEN_UPDATE=1 dune exec test/main.exe -- test golden"

let check_golden name actual =
  let hex = hex_of_string actual in
  if Sys.getenv_opt "GOLDEN_UPDATE" = Some "1" then begin
    let oc = open_out_bin (golden_path name) in
    output_string oc (hex ^ "\n");
    close_out oc
  end
  else
    match read_golden name with
    | None ->
        Alcotest.failf "missing golden file %s — create it with:\n  %s"
          (golden_path name) regenerate_hint
    | Some expected ->
        if not (String.equal expected hex) then
          Alcotest.failf
            "wire image for %S differs from %s:\n\
            \  expected: %s\n\
            \  actual:   %s\n\
             If this wire-format change is intentional, regenerate with:\n\
            \  %s"
            name (golden_path name) expected hex regenerate_hint

let check_hex name expected actual =
  Alcotest.(check string) name expected (hex_of_string actual)

let test_keepalive_bytes () =
  (* 16 x ff, length 0x0013 = 19, type 4 *)
  check_golden "keepalive" (Bgp.Codec.encode Bgp.Msg.Keepalive)

let test_open_bytes () =
  (* OPEN: version 4, my_as 64500 = 0xfbf4, hold 90 = 0x005a,
     id 10.0.0.1 = 0a000001, opt params: type 2 (caps) len 6:
     cap 65 (0x41) len 4: 64500 = 0x0000fbf4. *)
  let msg =
    Bgp.Msg.make_open ~asn:(Bgp.Asn.of_int 64500) ~bgp_id:(ip "10.0.0.1") ()
  in
  check_golden "open" (Bgp.Codec.encode msg)

let test_open_as_trans_bytes () =
  (* a 4-byte ASN puts AS_TRANS (23456 = 0x5ba0) in the 2-byte field *)
  let msg =
    Bgp.Msg.make_open ~asn:(Bgp.Asn.of_int 4200000000) ~bgp_id:(ip "10.0.0.1") ()
  in
  let wire = Bgp.Codec.encode msg in
  check_hex "as_trans field" "5ba0" (String.sub wire 20 2);
  (* and the real ASN in the capability: 4200000000 = 0xfa56ea00 *)
  check_hex "capability asn" "fa56ea00"
    (String.sub wire (String.length wire - 4) 4)

let test_update_bytes () =
  (* UPDATE with no withdrawals, ORIGIN+AS_PATH+NEXT_HOP, one /24:
       ORIGIN:   40 01 01 00
       AS_PATH:  40 02 06 02 01 0000fbf4   (one SEQ of one 4-byte ASN)
       NEXT_HOP: 40 03 04 0a000001
     nlri: 18 cb 00 71  (203.0.113.0/24) *)
  let attrs =
    Bgp.Attrs.make
      ~as_path:(Bgp.As_path.of_list [ Bgp.Asn.of_int 64500 ])
      ~next_hop:(ip "10.0.0.1") ()
  in
  let msg = Bgp.Msg.make_update ~attrs ~nlri:[ prefix "203.0.113.0/24" ] () in
  check_golden "update" (Bgp.Codec.encode msg)

let test_update_withdraw_bytes () =
  (* withdraw-only UPDATE: withdrawn len 4 (one /24), attr len 0 *)
  let msg = Bgp.Msg.make_update ~withdrawn:[ prefix "203.0.113.0/24" ] () in
  check_golden "withdraw" (Bgp.Codec.encode msg)

let test_notification_bytes () =
  (* NOTIFICATION hold-timer-expired: code 4 subcode 0 *)
  let msg = Bgp.Msg.Notification { code = Bgp.Msg.Hold_timer_expired; data = "" } in
  check_golden "notification" (Bgp.Codec.encode msg)

let test_communities_bytes () =
  (* COMMUNITIES attr: flags c0 (optional transitive), type 08, len 04,
     65000:911 = fde8 038f *)
  let attrs =
    Bgp.Attrs.make
      ~communities:[ Bgp.Community.make 65000 911 ]
      ~as_path:(Bgp.As_path.of_list [ Bgp.Asn.of_int 1 ])
      ~next_hop:(ip "10.0.0.1") ()
  in
  let msg = Bgp.Msg.make_update ~attrs ~nlri:[ prefix "10.0.0.0/8" ] () in
  let wire = Bgp.Codec.encode msg in
  Alcotest.(check bool) "contains communities attr" true
    (Helpers.string_contains ~needle:"\xc0\x08\x04\xfd\xe8\x03\x8f" wire)

let test_route_refresh_bytes () =
  (* type 5, afi 1, reserved 0, safi 1 *)
  check_golden "route_refresh"
    (Bgp.Codec.encode (Bgp.Msg.Route_refresh { afi = 1; safi = 1 }))

let test_prefix_padding_bits_masked () =
  (* RFC: trailing bits in the prefix field are irrelevant; decoder must
     mask them. Hand-build an update with 0xff in a /20's last byte. *)
  let attrs_hex =
    "400101" ^ "00" ^ "400206" ^ "0201" ^ "00000001" ^ "400304" ^ "0a000001"
  in
  let body_hex = "0000" ^ "0014" ^ attrs_hex ^ "14" ^ "0a01ff" in
  (* /20 = 0x14, bytes 0a 01 f0|0f: 10.1.240+15... 0a01ff has low 4 bits set *)
  let total = 19 + (String.length body_hex / 2) in
  let marker = String.concat "" (List.init 16 (fun _ -> "ff")) in
  let hex = marker ^ Printf.sprintf "%04x" total ^ "02" ^ body_hex in
  let wire =
    String.init (String.length hex / 2) (fun i ->
        Char.chr (int_of_string ("0x" ^ String.sub hex (2 * i) 2)))
  in
  match Bgp.Codec.decode wire with
  | Ok (Bgp.Msg.Update { nlri = [ p ]; _ }, _) ->
      Alcotest.check prefix_t "masked" (prefix "10.1.240.0/20") p
  | Ok _ -> Alcotest.fail "wrong message shape"
  | Error e -> Alcotest.failf "decode: %s" (Bgp.Codec.error_to_string e)

(* an MRT TABLE_DUMP_V2 image built entirely by hand: one peer-index
   record (collector, view, two peers) and two RIB_IPV4_UNICAST records.
   Pins the dump framing so recorded archives stay readable across
   refactors; regenerate with GOLDEN_UPDATE=1 if the format changes on
   purpose. *)
let golden_mrt =
  {
    Bgp.Mrt.collector_id = ip "192.0.2.1";
    view_name = "edge-fabric";
    peers =
      [
        {
          Bgp.Mrt.peer_bgp_id = ip "10.0.0.1";
          peer_addr = ip "172.16.0.1";
          peer_asn = Bgp.Asn.of_int 64500;
        };
        {
          Bgp.Mrt.peer_bgp_id = ip "10.0.0.2";
          peer_addr = ip "172.16.0.2";
          peer_asn = Bgp.Asn.of_int 65001;
        };
      ];
    records =
      [
        {
          Bgp.Mrt.sequence = 0;
          rib_prefix = prefix "10.1.0.0/16";
          entries =
            [
              {
                Bgp.Mrt.entry_peer_index = 0;
                originated_at = 1700000000;
                attrs = attrs ~path:[ 64500; 7 ] ();
              };
              {
                Bgp.Mrt.entry_peer_index = 1;
                originated_at = 1700000000;
                attrs = attrs ~path:[ 65001; 8; 7 ] ~med:(Some 10) ();
              };
            ];
        };
        {
          Bgp.Mrt.sequence = 1;
          rib_prefix = prefix "10.2.0.0/24";
          entries =
            [
              {
                Bgp.Mrt.entry_peer_index = 1;
                originated_at = 1700000100;
                attrs = attrs ~path:[ 65001; 9 ] ();
              };
            ];
        };
      ];
  }

let test_mrt_dump_bytes () =
  check_golden "mrt_table_dump" (Bgp.Mrt.encode ~timestamp:1700000000 golden_mrt)

(* the pinned image must also round-trip: decode it back and rebuild a
   RIB — the import side of the archive format *)
let test_mrt_dump_roundtrip () =
  let wire = Bgp.Mrt.encode ~timestamp:1700000000 golden_mrt in
  match Bgp.Mrt.decode wire with
  | Error e -> Alcotest.failf "decode: %a" Bgp.Mrt.pp_error e
  | Ok got -> (
      Alcotest.(check string) "re-encode byte-identical"
        (hex_of_string wire)
        (hex_of_string (Bgp.Mrt.encode ~timestamp:1700000000 got));
      match Bgp.Mrt.to_rib got with
      | Error e -> Alcotest.failf "to_rib: %a" Bgp.Mrt.pp_error e
      | Ok rib ->
          Alcotest.(check int) "prefixes" 2 (Bgp.Rib.prefix_count rib);
          Alcotest.(check int) "routes" 3 (Bgp.Rib.route_count rib))

let suite =
  [
    Alcotest.test_case "keepalive bytes" `Quick test_keepalive_bytes;
    Alcotest.test_case "open bytes" `Quick test_open_bytes;
    Alcotest.test_case "open as-trans bytes" `Quick test_open_as_trans_bytes;
    Alcotest.test_case "update bytes" `Quick test_update_bytes;
    Alcotest.test_case "withdraw bytes" `Quick test_update_withdraw_bytes;
    Alcotest.test_case "notification bytes" `Quick test_notification_bytes;
    Alcotest.test_case "communities bytes" `Quick test_communities_bytes;
    Alcotest.test_case "route refresh bytes" `Quick test_route_refresh_bytes;
    Alcotest.test_case "prefix padding masked" `Quick
      test_prefix_padding_bits_masked;
    Alcotest.test_case "mrt table dump bytes" `Quick test_mrt_dump_bytes;
    Alcotest.test_case "mrt table dump roundtrip" `Quick
      test_mrt_dump_roundtrip;
  ]
