(* Ef_policy: the compositional policy DSL.

   The central property: the direct interpreter and the route-map
   compiler are the same denotation — byte-identical route decisions on
   hundreds of seeded fuzz worlds, including [>>] sequencing (whose
   compilation goes through weakest-precondition guard rewriting). *)

module Bgp = Ef_bgp
module Pol = Ef_policy
module Rng = Ef_util.Rng
open Helpers

let self_asn = Bgp.Asn.of_int 64500

(* --- fuzz material --------------------------------------------------- *)

let community_pool =
  [|
    Bgp.Community.make 65000 10;
    Bgp.Community.make 65000 13;
    Bgp.Community.make 65010 80;
    Bgp.Community.make 65010 20;
    Bgp.Community.make 64999 1;
  |]

let asn_pool = [| 100; 200; 3356; 64500 |]

let prefix_pool =
  [|
    "10.1.0.0/16";
    "10.2.3.0/24";
    "192.168.7.0/24";
    "172.16.0.0/12";
    "10.9.8.0/25";
    "0.0.0.0/0";
  |]

let regions =
  [
    ("na-east", [ prefix "10.0.0.0/8" ]);
    ("europe", [ prefix "192.168.0.0/16" ]);
  ]

let fuzz_env = Pol.env ~regions ~self_asn ()

let kinds =
  [| Bgp.Peer.Transit; Bgp.Peer.Private_peer; Bgp.Peer.Public_peer;
     Bgp.Peer.Route_server |]

let gen_route rng =
  let communities =
    List.filter (fun _ -> Rng.chance rng 0.3) (Array.to_list community_pool)
  in
  let path =
    List.filter_map
      (fun _ -> if Rng.chance rng 0.6 then Some (Rng.pick rng asn_pool) else None)
      [ (); (); () ]
  in
  let path = if path = [] then [ 7 ] else path in
  route
    ~prefix_str:(Rng.pick rng prefix_pool)
    ~kind:(Rng.pick rng kinds) ~asn:(Rng.pick rng asn_pool)
    ~peer_id:(Rng.int_in rng 1 5)
    ~communities ~path ()

let gen_atom rng =
  match Rng.int rng 11 with
  | 0 -> Pol.any
  | 1 -> Pol.never
  | 2 ->
      Pol.prefix_in
        [ prefix (Rng.pick rng prefix_pool); prefix "10.0.0.0/8" ]
  | 3 -> Pol.prefix_exact (prefix (Rng.pick rng prefix_pool))
  | 4 -> Pol.prefix_len_at_least (Rng.int_in rng 8 25)
  | 5 -> Pol.has_community (Rng.pick rng community_pool)
  | 6 -> Pol.peer_kind (Rng.pick rng kinds)
  | 7 -> Pol.peer_asn (Bgp.Asn.of_int (Rng.pick rng asn_pool))
  | 8 -> Pol.path_contains (Bgp.Asn.of_int (Rng.pick rng asn_pool))
  | 9 -> Pol.in_region (Rng.pick rng [| "na-east"; "europe"; "mars" |])
  | _ -> Pol.shared_port

let rec gen_pred rng depth =
  if depth = 0 then gen_atom rng
  else
    match Rng.int rng 6 with
    | 0 -> Pol.all_of [ gen_pred rng (depth - 1); gen_pred rng (depth - 1) ]
    | 1 -> Pol.any_of [ gen_pred rng (depth - 1); gen_pred rng (depth - 1) ]
    | 2 -> Pol.not_ (gen_pred rng (depth - 1))
    | _ -> gen_atom rng

let gen_action rng =
  match Rng.int rng 9 with
  | 0 -> Pol.Set_local_pref (Rng.int_in rng 0 999)
  | 1 -> Pol.Set_med (if Rng.bool rng then Some (Rng.int_in rng 0 500) else None)
  | 2 -> Pol.Add_community (Rng.pick rng community_pool)
  | 3 -> Pol.Remove_community (Rng.pick rng community_pool)
  | 4 -> Pol.Prepend (Bgp.Asn.of_int (Rng.pick rng asn_pool), Rng.int_in rng 0 2)
  | 5 -> Pol.Set_overload_threshold (0.5 +. Rng.float rng 0.45)
  | 6 -> Pol.Set_detour_budget (Rng.float rng 0.9)
  | 7 -> Pol.Set_max_overrides (Rng.int_in rng 0 500)
  | _ -> Pol.Set_min_improvement_ms (Rng.float rng 50.0)

let gen_rule rng counter =
  incr counter;
  let verdict = if Rng.chance rng 0.25 then Pol.Reject else Pol.Accept in
  let n_actions = if verdict = Pol.Reject then 0 else Rng.int rng 4 in
  Pol.rule ~verdict
    ~name:(Printf.sprintf "r%d" !counter)
    (gen_pred rng 2)
    (List.init n_actions (fun _ -> gen_action rng))

let rec gen_policy rng counter depth =
  if depth = 0 then gen_rule rng counter
  else
    match Rng.int rng 4 with
    | 0 ->
        Pol.( <+> )
          (gen_policy rng counter (depth - 1))
          (gen_policy rng counter (depth - 1))
    | 1 ->
        Pol.( >> )
          (gen_policy rng counter (depth - 1))
          (gen_policy rng counter (depth - 1))
    | _ -> gen_rule rng counter

(* --- the central property: compiled = interpreted --------------------- *)

let n_worlds = 250

let test_compiled_matches_interpreted () =
  for seed = 1 to n_worlds do
    let rng = Rng.create (seed * 7001) in
    let counter = ref 0 in
    let policy = gen_policy rng counter 3 in
    let default = if seed mod 2 = 0 then Pol.Accept else Pol.Reject in
    let map = Pol.Compile.route_map ~default fuzz_env policy in
    for i = 1 to 25 do
      let r = gen_route rng in
      let interpreted = Pol.apply ~default fuzz_env policy r in
      let compiled = Bgp.Policy.apply map r in
      Alcotest.check
        (Alcotest.option route_t)
        (Printf.sprintf "world %d route %d" seed i)
        interpreted compiled
    done
  done

(* the allocator side has two paths too: the per-iface walk
   (iface_threshold) and the extracted parameter block (alloc_params) —
   they must tell the same story for every interface *)
let gen_iface rng id =
  {
    Pol.if_id = id;
    if_name = Printf.sprintf "if%d" id;
    if_shared = Rng.chance rng 0.3;
    if_region = Rng.pick rng [| "na-east"; "europe" |];
    if_peer_kinds =
      List.sort_uniq compare
        (List.filter_map
           (fun _ -> if Rng.chance rng 0.5 then Some (Rng.pick rng kinds) else None)
           [ (); () ]);
    if_peer_asns = [ Bgp.Asn.of_int (Rng.pick rng asn_pool) ];
  }

let test_alloc_params_match_iface_walk () =
  for seed = 1 to n_worlds do
    let rng = Rng.create (seed * 9013) in
    let ifaces = List.init 4 (fun id -> gen_iface rng id) in
    let env = Pol.env ~regions ~ifaces ~self_asn () in
    let counter = ref 0 in
    let policy = gen_policy rng counter 3 in
    let ap = Pol.alloc_params env policy in
    List.iter
      (fun i ->
        let direct = Pol.iface_threshold env policy i in
        let via_params =
          match List.assoc_opt i.Pol.if_id ap.Pol.ap_iface_thresholds with
          | Some v -> Some v
          | None -> (
              (* not listed: either the global value applies or nothing *)
              match direct with
              | Some v when ap.Pol.ap_overload_threshold = Some v -> direct
              | _ -> None)
        in
        Alcotest.(check (option (float 0.0)))
          (Printf.sprintf "world %d iface %d" seed i.Pol.if_id)
          direct via_params)
      ifaces
  done

(* --- sequencing / weakest-precondition hand cases --------------------- *)

let test_seq_community_wp () =
  let open Pol in
  let c = Bgp.Community.make 64999 1 in
  (* first stage tags everything it accepts; second stage matches the tag *)
  let p =
    rule ~name:"tag" (peer_kind Bgp.Peer.Transit) [ Add_community c ]
    >> rule ~name:"on-tag" (has_community c) [ Set_local_pref 42 ]
  in
  let map = Compile.route_map ~default:Reject fuzz_env p in
  let check r = (apply ~default:Reject fuzz_env p r, Bgp.Policy.apply map r) in
  (* a transit route without the tag still hits the second stage, because
     stage one added the tag before stage two looked *)
  let transit = route ~kind:Bgp.Peer.Transit () in
  let interp, compiled = check transit in
  Alcotest.check (Alcotest.option route_t) "transit agrees" interp compiled;
  (match interp with
  | None -> Alcotest.fail "transit route rejected"
  | Some r ->
      Alcotest.(check int) "lp set by stage 2" 42 (Bgp.Route.local_pref r);
      Alcotest.(check bool) "tagged" true (Bgp.Route.has_community c r));
  (* a private route that already carries the tag reaches stage two
     unmodified by stage one *)
  let private_tagged =
    route ~kind:Bgp.Peer.Private_peer ~communities:[ c ] ()
  in
  let interp, compiled = check private_tagged in
  Alcotest.check (Alcotest.option route_t) "pre-tagged agrees" interp compiled;
  (match interp with
  | None -> Alcotest.fail "pre-tagged route rejected"
  | Some r -> Alcotest.(check int) "lp set" 42 (Bgp.Route.local_pref r));
  (* an untagged private route matches neither stage: default applies *)
  let private_plain = route ~kind:Bgp.Peer.Private_peer () in
  let interp, compiled = check private_plain in
  Alcotest.check (Alcotest.option route_t) "unmatched agrees" interp compiled;
  Alcotest.(check bool) "unmatched rejected" true (interp = None)

let test_seq_remove_community_wp () =
  let open Pol in
  let c = Bgp.Community.make 64999 1 in
  let p =
    rule ~name:"strip" any [ Remove_community c ]
    >> rule ~name:"on-tag" (has_community c) [ Set_local_pref 42 ]
  in
  let map = Compile.route_map ~default:Accept fuzz_env p in
  (* the tag is stripped before stage two looks, so lp is never set *)
  let r = route ~communities:[ c ] () in
  let interp = apply ~default:Accept fuzz_env p r in
  let compiled = Bgp.Policy.apply map r in
  Alcotest.check (Alcotest.option route_t) "agree" interp compiled;
  match interp with
  | None -> Alcotest.fail "rejected"
  | Some r' ->
      Alcotest.(check bool) "tag stripped" false (Bgp.Route.has_community c r');
      Alcotest.(check int) "lp untouched" (Bgp.Route.local_pref r)
        (Bgp.Route.local_pref r')

let test_seq_reject_is_final () =
  let open Pol in
  let p =
    deny ~name:"no-transit" (peer_kind Bgp.Peer.Transit)
    >> rule ~name:"accept-all" any [ Set_local_pref 7 ]
  in
  let map = Compile.route_map ~default:Reject fuzz_env p in
  let transit = route ~kind:Bgp.Peer.Transit () in
  Alcotest.(check bool) "interp rejects" true
    (apply ~default:Reject fuzz_env p transit = None);
  Alcotest.(check bool) "compiled rejects" true
    (Bgp.Policy.apply map transit = None)

(* --- first-match and scope semantics ---------------------------------- *)

let test_union_first_match_wins () =
  let open Pol in
  let p =
    rule ~name:"first" (peer_kind Bgp.Peer.Transit) [ Set_local_pref 111 ]
    <+> rule ~name:"second" (peer_kind Bgp.Peer.Transit) [ Set_local_pref 222 ]
  in
  match apply ~default:Reject fuzz_env p (route ~kind:Bgp.Peer.Transit ()) with
  | None -> Alcotest.fail "rejected"
  | Some r -> Alcotest.(check int) "first wins" 111 (Bgp.Route.local_pref r)

let shared_iface =
  {
    Pol.if_id = 9;
    if_name = "ixp";
    if_shared = true;
    if_region = "europe";
    if_peer_kinds = [ Bgp.Peer.Public_peer; Bgp.Peer.Route_server ];
    if_peer_asns = [ Bgp.Asn.of_int 200 ];
  }

let pni_iface =
  {
    Pol.if_id = 3;
    if_name = "pni";
    if_shared = false;
    if_region = "europe";
    if_peer_kinds = [ Bgp.Peer.Private_peer ];
    if_peer_asns = [ Bgp.Asn.of_int 100 ];
  }

let iface_env =
  Pol.env ~regions ~ifaces:[ pni_iface; shared_iface ] ~self_asn ()

let test_iface_threshold_priority () =
  let open Pol in
  (* union: the left (higher-priority) rule's knob wins *)
  let u =
    rule ~name:"a" shared_port [ Set_overload_threshold 0.8 ]
    <+> rule ~name:"b" shared_port [ Set_overload_threshold 0.7 ]
  in
  Alcotest.(check (option (float 0.0)))
    "union left wins" (Some 0.8)
    (iface_threshold iface_env u shared_iface);
  (* seq: the right side runs later, so its knob wins *)
  let s =
    rule ~name:"a" shared_port [ Set_overload_threshold 0.8 ]
    >> rule ~name:"b" shared_port [ Set_overload_threshold 0.7 ]
  in
  Alcotest.(check (option (float 0.0)))
    "seq right wins" (Some 0.7)
    (iface_threshold iface_env s shared_iface);
  (* within a rule, the last action wins *)
  let last =
    rule ~name:"a" shared_port
      [ Set_overload_threshold 0.8; Set_overload_threshold 0.6 ]
  in
  Alcotest.(check (option (float 0.0)))
    "last action wins" (Some 0.6)
    (iface_threshold iface_env last shared_iface);
  (* the non-shared interface is untouched *)
  Alcotest.(check (option (float 0.0)))
    "pni untouched" None
    (iface_threshold iface_env u pni_iface)

let test_global_knobs_need_unconditional_rules () =
  let open Pol in
  (* a route-guarded rule must not leak its budget into the global scope *)
  let p = rule ~name:"g" (peer_kind Bgp.Peer.Transit) [ Set_detour_budget 0.1 ] in
  let ap = alloc_params iface_env p in
  Alcotest.(check (option (float 0.0))) "guarded: no global budget" None
    ap.ap_detour_budget;
  let p = p <+> params [ Set_detour_budget 0.25; Set_max_overrides 40 ] in
  let ap = alloc_params iface_env p in
  Alcotest.(check (option (float 0.0)))
    "params rule sets it" (Some 0.25) ap.ap_detour_budget;
  Alcotest.(check (option int)) "and the count" (Some 40) ap.ap_max_overrides

let test_remote_peering_alloc_side () =
  let ap =
    Pol.alloc_params iface_env
      Ef_netsim.Scenario.remote_peering_policy.Pol.program_policy
  in
  Alcotest.(check (list (pair int (float 0.0))))
    "ixp port tightened"
    [ (shared_iface.Pol.if_id, 0.85) ]
    ap.Pol.ap_iface_thresholds;
  Alcotest.(check (option (float 0.0)))
    "no global threshold" None ap.Pol.ap_overload_threshold;
  Alcotest.(check (option (float 0.0)))
    "detour budget" (Some 0.3) ap.Pol.ap_detour_budget

(* --- standard import = its expected clause list ------------------------ *)

(* The PoP's standard import route-map, written out clause by clause:
   loop prevention, the two martian guards, then one accept per neighbor
   kind setting its LOCAL_PREF tier and tagging its ingest community. *)
let expected_standard_import =
  let open Bgp.Policy in
  let reject clause_name guard =
    { clause_name; guard; actions = []; verdict = Reject }
  in
  let kind_clause kind =
    {
      clause_name = "ingest-" ^ Bgp.Peer.kind_to_string kind;
      guard = Match_peer_kind kind;
      actions =
        [
          Set_local_pref (local_pref_for_kind kind);
          Add_community (ingest_community kind);
        ];
      verdict = Accept;
    }
  in
  make ~default:Reject
    (reject "deny-own-asn" (Match_path_contains self_asn)
    :: reject "deny-too-specific" (Match_prefix_len_at_least 25)
    :: reject "deny-default-route" (Match_prefix_exact Bgp.Prefix.default)
    :: List.map kind_clause Bgp.Peer.all_kinds)

let test_standard_import_equals_expected () =
  let compiled = Pol.standard_import_map ~self_asn in
  (* structurally identical clause lists (the printers render every
     clause, guard, action and the default verdict) *)
  Alcotest.(check string)
    "identical clauses"
    (Format.asprintf "%a" Bgp.Policy.pp expected_standard_import)
    (Format.asprintf "%a" Bgp.Policy.pp compiled);
  (* and behaviorally identical on fuzzed routes *)
  let rng = Rng.create 4242 in
  for i = 1 to 500 do
    let r = gen_route rng in
    Alcotest.check
      (Alcotest.option route_t)
      (Printf.sprintf "route %d" i)
      (Bgp.Policy.apply expected_standard_import r)
      (Bgp.Policy.apply compiled r)
  done

let test_local_pref_table_is_the_source () =
  List.iter
    (fun kind ->
      Alcotest.(check int)
        (Bgp.Peer.kind_to_string kind)
        (List.assoc kind Bgp.Policy.local_pref_table)
        (Bgp.Policy.local_pref_for_kind kind))
    Bgp.Peer.all_kinds;
  (* the paper's ordering: private > public > route-server > transit *)
  let lp k = Bgp.Policy.local_pref_for_kind k in
  Alcotest.(check bool) "ordering" true
    (lp Bgp.Peer.Private_peer > lp Bgp.Peer.Public_peer
    && lp Bgp.Peer.Public_peer > lp Bgp.Peer.Route_server
    && lp Bgp.Peer.Route_server > lp Bgp.Peer.Transit)

(* --- validation -------------------------------------------------------- *)

let test_validate_rejects_bad_programs () =
  let open Pol in
  let bad p = Alcotest.(check bool) "rejected" true (Result.is_error (validate p)) in
  bad (params [ Set_overload_threshold 0.0 ]);
  bad (params [ Set_overload_threshold 1.5 ]);
  bad (params [ Set_detour_budget 1.2 ]);
  bad (params [ Set_max_overrides (-1) ]);
  bad (rule ~name:"" any []);
  bad (rule ~name:"p" any [ Prepend (self_asn, -1) ]);
  Alcotest.(check bool) "good program passes" true
    (Result.is_ok
       (validate
          Ef_netsim.Scenario.remote_peering_policy.Pol.program_policy))

(* --- codec ------------------------------------------------------------- *)

let test_codec_roundtrip_fuzzed () =
  for seed = 1 to n_worlds do
    let rng = Rng.create (seed * 3307) in
    let counter = ref 0 in
    (* valid knob values only: of_string re-validates *)
    let policy = gen_policy rng counter 3 in
    let prog =
      Pol.program
        ~default:(if seed mod 2 = 0 then Pol.Accept else Pol.Reject)
        ~name:(Printf.sprintf "fuzz-%d" seed)
        policy
    in
    match Pol.validate policy with
    | Error _ -> () (* generator stays in range; skip if not *)
    | Ok () -> (
        let s = Pol.Codec.to_string prog in
        match Pol.Codec.of_string s with
        | Error msg -> Alcotest.failf "world %d: %s" seed msg
        | Ok prog' ->
            Alcotest.(check bool)
              (Printf.sprintf "world %d roundtrips" seed)
              true
              (Pol.equal_program prog prog');
            (* canonical form: save(load(x)) = x *)
            Alcotest.(check string)
              (Printf.sprintf "world %d fixpoint" seed)
              s
              (Pol.Codec.to_string prog'))
  done

let test_codec_load_save_load_fixpoint () =
  List.iter
    (fun (name, prog) ->
      let file = Filename.temp_file ("efpol-" ^ name) ".json" in
      Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
      Pol.Codec.save file prog;
      match Pol.Codec.load file with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok prog' ->
          Alcotest.(check bool) (name ^ " equal") true
            (Pol.equal_program prog prog');
          Pol.Codec.save file prog';
          (match Pol.Codec.load file with
          | Error msg -> Alcotest.failf "%s (2nd): %s" name msg
          | Ok prog'' ->
              Alcotest.(check bool) (name ^ " fixpoint") true
                (Pol.equal_program prog' prog'')))
    Ef_netsim.Scenario.policies

let test_codec_rejects_garbage () =
  let bad s =
    Alcotest.(check bool) s true (Result.is_error (Pol.Codec.of_string s))
  in
  bad "not json";
  bad {|{"name":"x"}|};
  bad {|{"name":"x","default":"maybe","policy":{"op":"rule"}}|};
  bad
    {|{"name":"x","default":"accept","policy":{"op":"rule","name":"r","if":{"pred":"peer-kind","kind":"weird"},"then":[],"verdict":"accept"}}|};
  (* valid shape but out-of-range knob: validation runs on load *)
  bad
    {|{"name":"x","default":"accept","policy":{"op":"rule","name":"r","if":{"pred":"any"},"then":[{"act":"overload-threshold","value":2.5}],"verdict":"accept"}}|}

(* --- golden policy JSON ------------------------------------------------ *)

let golden_dir =
  lazy
    (List.find_opt
       (fun d -> Sys.file_exists d && Sys.is_directory d)
       [ "golden"; "test/golden" ])

let golden_path name =
  match Lazy.force golden_dir with
  | Some d -> Filename.concat d (Printf.sprintf "policy_%s.json" name)
  | None -> Alcotest.fail "no golden directory found (golden/ or test/golden/)"

let test_golden_policies () =
  List.iter
    (fun (name, prog) ->
      let path = golden_path name in
      let got = Pol.Codec.to_string prog ^ "\n" in
      if Sys.getenv_opt "GOLDEN_UPDATE" <> None then begin
        let oc = open_out path in
        output_string oc got;
        close_out oc
      end
      else if not (Sys.file_exists path) then
        Alcotest.failf
          "missing golden %s — run GOLDEN_UPDATE=1 dune exec test/main.exe -- \
           test policy"
          path
      else begin
        let ic = open_in path in
        let want = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Alcotest.(check string) (name ^ " golden JSON") want got
      end)
    Ef_netsim.Scenario.policies

(* --- engine integration ------------------------------------------------ *)

let short config = { config with Ef_sim.Engine.duration_s = 600; cycle_s = 60 }

let test_engine_applies_policy_knobs () =
  let engine =
    Ef_sim.Engine.create
      ~config:(short Ef_sim.Engine.default_config)
      Ef_netsim.Scenario.remote_ixp
  in
  let ctl = (Ef_sim.Engine.config engine).Ef_sim.Engine.controller_config in
  (* the shared IXP port got the tightened threshold; nothing else did *)
  (match ctl.Edge_fabric.Config.iface_thresholds with
  | [ (id, th) ] ->
      let world = Ef_sim.Engine.world engine in
      let iface =
        List.find
          (fun i -> Ef_netsim.Iface.id i = id)
          (Ef_netsim.Pop.interfaces world.Ef_netsim.Topo_gen.pop)
      in
      Alcotest.(check bool) "it is the shared port" true
        (Ef_netsim.Iface.shared iface);
      check_float "threshold" 0.85 th
  | l -> Alcotest.failf "expected one per-iface threshold, got %d" (List.length l));
  check_float "global untouched" 0.95 ctl.Edge_fabric.Config.overload_threshold;
  match ctl.Edge_fabric.Config.guard.Edge_fabric.Guard.max_detour_fraction with
  | Some b -> check_float "detour budget" 0.3 b
  | None -> Alcotest.fail "detour budget not applied"

let test_engine_policy_config_equals_scenario_path () =
  (* running tiny under an explicit standard-import program is the same
     pipeline as the default path (which compiles the same program) *)
  let prog =
    Pol.program ~name:"std"
      (Pol.standard_import ~self_asn:Ef_netsim.Topo_gen.small_config.Ef_netsim.Topo_gen.self_asn)
  in
  let base = short Ef_sim.Engine.default_config in
  let with_policy = { base with Ef_sim.Engine.policy = Some prog } in
  let e1 = Ef_sim.Engine.create ~config:base Ef_netsim.Scenario.tiny in
  let e2 = Ef_sim.Engine.create ~config:with_policy Ef_netsim.Scenario.tiny in
  let m1 = Ef_sim.Engine.run e1 and m2 = Ef_sim.Engine.run e2 in
  Alcotest.(check bool) "identical metrics rows" true
    (Ef_sim.Metrics.rows m1 = Ef_sim.Metrics.rows m2)

let test_community_led_world_honors_signals () =
  (* in the community-led world, some public-peer route carrying the
     prefer signal ends up with LOCAL_PREF above the private tier *)
  let world =
    Ef_netsim.Topo_gen.generate Ef_netsim.Scenario.community_led.Ef_netsim.Scenario.topo
  in
  let rib = Ef_netsim.Pop.rib world.Ef_netsim.Topo_gen.pop in
  let preferred =
    List.exists
      (fun prefix ->
        List.exists
          (fun r ->
            Bgp.Route.has_community Ef_netsim.Topo_gen.signal_prefer r
            && Bgp.Route.local_pref r
               > Bgp.Policy.local_pref_for_kind Bgp.Peer.Private_peer)
          (Bgp.Rib.candidates rib prefix))
      world.Ef_netsim.Topo_gen.all_prefixes
  in
  Alcotest.(check bool) "a prefer-tagged route outranks private" true preferred

let suite =
  [
    Alcotest.test_case "compiled = interpreted (250 worlds)" `Quick
      test_compiled_matches_interpreted;
    Alcotest.test_case "alloc params = iface walk (250 worlds)" `Quick
      test_alloc_params_match_iface_walk;
    Alcotest.test_case "seq: community wp" `Quick test_seq_community_wp;
    Alcotest.test_case "seq: remove-community wp" `Quick
      test_seq_remove_community_wp;
    Alcotest.test_case "seq: reject is final" `Quick test_seq_reject_is_final;
    Alcotest.test_case "union: first match wins" `Quick
      test_union_first_match_wins;
    Alcotest.test_case "iface threshold priority" `Quick
      test_iface_threshold_priority;
    Alcotest.test_case "global knobs are unconditional" `Quick
      test_global_knobs_need_unconditional_rules;
    Alcotest.test_case "remote-peering alloc side" `Quick
      test_remote_peering_alloc_side;
    Alcotest.test_case "standard import = default ingest" `Quick
      test_standard_import_equals_expected;
    Alcotest.test_case "one local-pref table" `Quick
      test_local_pref_table_is_the_source;
    Alcotest.test_case "validate rejects bad programs" `Quick
      test_validate_rejects_bad_programs;
    Alcotest.test_case "codec roundtrip (250 worlds)" `Quick
      test_codec_roundtrip_fuzzed;
    Alcotest.test_case "codec load-save-load fixpoint" `Quick
      test_codec_load_save_load_fixpoint;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "golden policy JSON" `Quick test_golden_policies;
    Alcotest.test_case "engine applies policy knobs" `Quick
      test_engine_applies_policy_knobs;
    Alcotest.test_case "engine --policy path = scenario path" `Quick
      test_engine_policy_config_equals_scenario_path;
    Alcotest.test_case "community-led honors signals" `Quick
      test_community_led_world_honors_signals;
  ]
