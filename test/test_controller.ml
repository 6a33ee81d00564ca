(* edge_fabric: Hysteresis and Controller *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
module Ef = Edge_fabric
open Helpers

(* reuse the hand-built fixture from Test_core *)
let fixture = Test_core.fixture
let snapshot = Test_core.snapshot
let pfx_a = Test_core.pfx_a
let pfx_b = Test_core.pfx_b
let pfx_c = Test_core.pfx_c

let transit_target fx p =
  let snap = snapshot fx [ (p, 1e9) ] in
  List.find
    (fun r -> Bgp.Route.peer_kind r = Bgp.Peer.Transit)
    (C.Snapshot.routes snap p)

let override_for fx ?(rate = 1e9) p =
  Ef.Override.make ~prefix:p ~target:(transit_target fx p)
    ~from_iface:(N.Iface.id fx.Test_core.iface_private)
    ~to_iface:(N.Iface.id fx.Test_core.iface_transit)
    ~preference_level:1 ~rate_bps:rate

(* a projection whose private-iface utilization we control *)
let projection_with_private_load fx bps =
  let snap = snapshot fx [ (pfx_a, bps) ] in
  Ef.Projection.project snap

let damped_config = Ef.Config.default (* hold 60s, release at 0.85 *)

let test_hysteresis_installs_new () =
  let fx = fixture () in
  let h = Ef.Hysteresis.create damped_config in
  let o = override_for fx pfx_a in
  let r =
    Ef.Hysteresis.step h ~time_s:0 ~desired:[ o ]
      ~preferred:(projection_with_private_load fx 9.8e9)
  in
  Alcotest.(check int) "added" 1 (List.length r.Ef.Hysteresis.added);
  Alcotest.(check int) "active" 1 (List.length r.Ef.Hysteresis.active);
  Alcotest.(check (option int)) "installed at" (Some 0)
    (Ef.Hysteresis.installed_at h pfx_a)

let test_hysteresis_keeps_stable () =
  let fx = fixture () in
  let h = Ef.Hysteresis.create damped_config in
  let o = override_for fx pfx_a in
  let preferred = projection_with_private_load fx 9.8e9 in
  ignore (Ef.Hysteresis.step h ~time_s:0 ~desired:[ o ] ~preferred);
  let r = Ef.Hysteresis.step h ~time_s:30 ~desired:[ o ] ~preferred in
  Alcotest.(check int) "kept" 1 (List.length r.Ef.Hysteresis.kept);
  Alcotest.(check int) "no adds" 0 (List.length r.Ef.Hysteresis.added);
  Alcotest.(check int) "no removals" 0 (List.length r.Ef.Hysteresis.removed);
  (* installation time is preserved, not refreshed *)
  Alcotest.(check (option int)) "age preserved" (Some 0)
    (Ef.Hysteresis.installed_at h pfx_a)

let test_hysteresis_min_hold_blocks_release () =
  let fx = fixture () in
  let h = Ef.Hysteresis.create damped_config in
  let o = override_for fx pfx_a in
  (* demand collapsed: preferred iface would be at 10% — releasable on
     utilization, but the hold time has not matured *)
  let low = projection_with_private_load fx 1e9 in
  ignore (Ef.Hysteresis.step h ~time_s:0 ~desired:[ o ] ~preferred:low);
  let r = Ef.Hysteresis.step h ~time_s:30 ~desired:[] ~preferred:low in
  Alcotest.(check int) "not removed yet" 0 (List.length r.Ef.Hysteresis.removed);
  Alcotest.(check int) "deferred" 1 r.Ef.Hysteresis.deferred_releases;
  (* after maturity it releases, and the lifetime is reported *)
  let r = Ef.Hysteresis.step h ~time_s:90 ~desired:[] ~preferred:low in
  (match r.Ef.Hysteresis.removed with
  | [ (removed, age) ] ->
      Alcotest.check prefix_t "right prefix" pfx_a removed.Ef.Override.prefix;
      Alcotest.(check int) "age" 90 age
  | l -> Alcotest.failf "expected one removal, got %d" (List.length l));
  Alcotest.(check int) "inactive" 0 (Ef.Hysteresis.active_count h)

let test_hysteresis_release_needs_low_utilization () =
  let fx = fixture () in
  let h = Ef.Hysteresis.create damped_config in
  let o = override_for fx pfx_a in
  (* preferred iface still at 90% (> release threshold 85%): even after
     min-hold the override must stay — this is the flap damping *)
  let high = projection_with_private_load fx 9e9 in
  ignore (Ef.Hysteresis.step h ~time_s:0 ~desired:[ o ] ~preferred:high);
  let r = Ef.Hysteresis.step h ~time_s:300 ~desired:[] ~preferred:high in
  Alcotest.(check int) "still held" 0 (List.length r.Ef.Hysteresis.removed);
  Alcotest.(check int) "deferred" 1 r.Ef.Hysteresis.deferred_releases;
  (* once projected demand drops below release threshold it goes *)
  let low = projection_with_private_load fx 8e9 in
  let r = Ef.Hysteresis.step h ~time_s:330 ~desired:[] ~preferred:low in
  Alcotest.(check int) "released" 1 (List.length r.Ef.Hysteresis.removed)

let test_hysteresis_retarget_after_hold () =
  let fx = fixture () in
  let h = Ef.Hysteresis.create damped_config in
  let o = override_for fx pfx_a in
  let preferred = projection_with_private_load fx 9.8e9 in
  ignore (Ef.Hysteresis.step h ~time_s:0 ~desired:[ o ] ~preferred);
  (* allocator now wants the same prefix on a different peer *)
  let snap = snapshot fx [ (pfx_a, 1e9) ] in
  let public_route =
    List.find
      (fun r -> Bgp.Route.peer_kind r = Bgp.Peer.Public_peer)
      (C.Snapshot.routes snap pfx_a)
  in
  let o2 =
    Ef.Override.make ~prefix:pfx_a ~target:public_route
      ~from_iface:(N.Iface.id fx.Test_core.iface_private)
      ~to_iface:(N.Iface.id fx.Test_core.iface_public)
      ~preference_level:1 ~rate_bps:1e9
  in
  (* too early: damped *)
  let r = Ef.Hysteresis.step h ~time_s:30 ~desired:[ o2 ] ~preferred in
  Alcotest.(check int) "no retarget yet" 0 (List.length r.Ef.Hysteresis.retargeted);
  (* matured: retargeted in place *)
  let r = Ef.Hysteresis.step h ~time_s:90 ~desired:[ o2 ] ~preferred in
  Alcotest.(check int) "retargeted" 1 (List.length r.Ef.Hysteresis.retargeted);
  match Ef.Hysteresis.active h with
  | [ active ] ->
      Alcotest.(check int) "new target" (Bgp.Route.peer_id public_route)
        (Ef.Override.target_peer_id active)
  | l -> Alcotest.failf "expected one active, got %d" (List.length l)

let test_hysteresis_disabled_tracks_exactly () =
  let fx = fixture () in
  let free =
    Ef.Config.make ~min_hold_s:0 ~release_margin:0.0 ()
  in
  let h = Ef.Hysteresis.create free in
  let o = override_for fx pfx_a in
  let low = projection_with_private_load fx 1e9 in
  ignore (Ef.Hysteresis.step h ~time_s:0 ~desired:[ o ] ~preferred:low);
  let r = Ef.Hysteresis.step h ~time_s:30 ~desired:[] ~preferred:low in
  Alcotest.(check int) "released immediately" 1 (List.length r.Ef.Hysteresis.removed)

(* --- Controller -------------------------------------------------------- *)

let test_controller_cycle_relieves () =
  let fx = fixture () in
  let ctrl = Ef.Controller.create ~name:"test" () in
  let snap = snapshot fx [ (pfx_a, 8e9); (pfx_b, 4e9); (pfx_c, 1e9) ] in
  let stats = Ef.Controller.cycle ctrl snap in
  Alcotest.(check bool) "was overloaded" true (Ef.Controller.overloaded_before stats <> []);
  Alcotest.(check int) "fixed" 0 (List.length (Ef.Controller.overloaded_after stats));
  Alcotest.(check bool) "detoured something" true
    (Ef.Controller.detour_fraction stats > 0.0);
  Alcotest.(check int) "active overrides" 1
    (List.length (Ef.Controller.active_overrides ctrl));
  Alcotest.(check int) "cycles" 1 (Ef.Controller.cycles_run ctrl)

(* [Gc.quick_stat]'s minor count moves only when a minor collection
   runs, so a small cycle used to record 0 (or a whole minor heap); the
   recorded delta must be the cycle's own allocation. This cycle
   allocates about 1,400 words; the fixed bound keeps the check
   independent of the runtime's minor-heap size. *)
let test_controller_gc_minor_words () =
  let fx = fixture () in
  let reg = Ef_obs.Registry.create () in
  let ctrl = Ef.Controller.create ~obs:reg ~name:"test" () in
  let snap = snapshot fx [ (pfx_a, 8e9); (pfx_b, 4e9); (pfx_c, 1e9) ] in
  ignore (Ef.Controller.cycle ctrl snap);
  let h = Ef_obs.Registry.histogram reg "controller.gc.minor_words" in
  Alcotest.(check int) "one observation" 1 (Ef_obs.Histogram.count h);
  let v = Ef_obs.Histogram.sum h in
  if not (v > 0.0 && v < 65_536.0) then
    Alcotest.failf "minor words %.0f outside (0, 65536)" v

let test_controller_emits_bgp_updates () =
  let fx = fixture () in
  let ctrl = Ef.Controller.create ~name:"test" () in
  let snap = snapshot fx [ (pfx_a, 8e9); (pfx_b, 4e9) ] in
  let stats = Ef.Controller.cycle ctrl snap in
  let updates = Ef.Controller.bgp_updates stats in
  Alcotest.(check int) "one announcement" 1 (List.length updates);
  (match updates with
  | [ u ] -> (
      Alcotest.(check int) "nlri" 1 (List.length u.Bgp.Msg.nlri);
      match u.Bgp.Msg.attrs with
      | Some a ->
          Alcotest.(check (option int)) "controller local pref" (Some 1000)
            a.Bgp.Attrs.local_pref
      | None -> Alcotest.fail "no attrs")
  | _ -> ());
  (* steady state: same snapshot, no churn, no messages *)
  let stats2 = Ef.Controller.cycle ctrl snap in
  Alcotest.(check int) "no updates second cycle" 0
    (List.length (Ef.Controller.bgp_updates stats2))

let test_controller_releases_when_demand_drops () =
  let fx = fixture () in
  let config = Ef.Config.make ~min_hold_s:0 () in
  let ctrl = Ef.Controller.create ~config ~name:"test" () in
  ignore (Ef.Controller.cycle ctrl (snapshot fx [ (pfx_a, 8e9); (pfx_b, 4e9) ]));
  Alcotest.(check int) "installed" 1
    (List.length (Ef.Controller.active_overrides ctrl));
  (* demand collapses far below the release threshold *)
  let stats = Ef.Controller.cycle ctrl (snapshot fx [ (pfx_a, 1e9); (pfx_b, 1e9) ]) in
  Alcotest.(check int) "released" 1
    (List.length (Ef.Controller.overrides_removed stats));
  Alcotest.(check int) "none active" 0
    (List.length (Ef.Controller.active_overrides ctrl));
  (* the release shows up as a withdrawal on the wire *)
  Alcotest.(check bool) "withdrawal emitted" true
    (List.exists
       (fun u -> u.Bgp.Msg.withdrawn <> [])
       (Ef.Controller.bgp_updates stats))

let test_controller_stateless_across_restart () =
  let fx = fixture () in
  let snap = snapshot fx [ (pfx_a, 8e9); (pfx_b, 4e9) ] in
  let ctrl1 = Ef.Controller.create ~name:"a" () in
  let stats1 = Ef.Controller.cycle ctrl1 snap in
  (* a fresh controller fed the same snapshot reaches the same decision *)
  let ctrl2 = Ef.Controller.create ~name:"b" () in
  let stats2 = Ef.Controller.cycle ctrl2 snap in
  let sig_of s =
    List.map
      (fun (o : Ef.Override.t) ->
        (Bgp.Prefix.to_string o.Ef.Override.prefix, Ef.Override.target_peer_id o))
      (Ef.Controller.overrides_enforced s)
  in
  Alcotest.(check (list (pair string int))) "same decisions" (sig_of stats1)
    (sig_of stats2)

let test_controller_bad_config_rejected () =
  Alcotest.check_raises "invalid config"
    (Invalid_argument
       "Controller.create: bad config: overload_threshold must be in (0, 1]")
    (fun () ->
      ignore
        (Ef.Controller.create
           ~config:(Ef.Config.make ~overload_threshold:1.5 ())
           ~name:"bad" ()))

(* The low-confidence rung: once 3 healthy cycles have seeded the rate
   EWMA, a snapshot whose total falls below [min_rate_confidence] x the
   EWMA fails static — the previous active set is held exactly and the
   degradation is counted — and the warm image is dropped, so the next
   healthy cycle runs cold (even on a snapshot linked to the last healthy
   one) and the one after it warm again. *)
let test_controller_low_confidence_holds () =
  let fx = fixture () in
  let reg = Ef_obs.Registry.create () in
  let config = Ef.Config.make ~min_rate_confidence:0.5 () in
  let ctrl = Ef.Controller.create ~config ~obs:reg ~name:"lowconf" () in
  let healthy = [ (pfx_a, 8e9); (pfx_b, 4e9); (pfx_c, 1e9) ] in
  let prev = ref (snapshot fx healthy) in
  let cycle_on ?(from = !prev) ~time_s rates =
    let snap =
      if time_s = 0 then from
      else C.Snapshot.patch ~prev:from ~rate_updates:rates ~time_s ()
    in
    prev := snap;
    Ef.Controller.cycle ctrl snap
  in
  List.iter
    (fun time_s ->
      let stats = cycle_on ~time_s healthy in
      Alcotest.(check bool) "healthy cycle" true
        (Ef.Controller.degraded stats = None))
    [ 0; 30; 60 ];
  Alcotest.(check int) "warm after the first cycle" 2
    (Ef.Controller.incremental_hits ctrl);
  let held = Ef.Controller.active_overrides ctrl in
  Alcotest.(check bool) "overrides to hold" true (held <> []);
  let same_set a b =
    List.equal
      (fun x y ->
        Ef.Override.equal x y && x.Ef.Override.rate_bps = y.Ef.Override.rate_bps)
      a b
  in
  let last_healthy = !prev in
  (* a feed blackout: 10% of the healthy total, under half the EWMA *)
  let stats =
    cycle_on ~time_s:90 (List.map (fun (p, bps) -> (p, bps /. 10.0)) healthy)
  in
  (match Ef.Controller.degraded stats with
  | Some (Ef.Controller.Low_confidence { observed_bps; expected_bps }) ->
      Alcotest.(check bool) "below the confidence floor" true
        (observed_bps < 0.5 *. expected_bps)
  | _ -> Alcotest.fail "expected a low-confidence degradation");
  Alcotest.(check bool) "enforces the held set" true
    (same_set held (Ef.Controller.overrides_enforced stats));
  Alcotest.(check bool) "active set unchanged" true
    (same_set held (Ef.Controller.active_overrides ctrl));
  Alcotest.(check (float 0.0)) "degradation counted" 1.0
    (Ef_obs.Counter.value
       (Ef_obs.Registry.counter reg "controller.degraded.low_confidence"));
  let hits = Ef.Controller.incremental_hits ctrl in
  let stats = cycle_on ~from:last_healthy ~time_s:120 healthy in
  Alcotest.(check bool) "recovered" true (Ef.Controller.degraded stats = None);
  Alcotest.(check int) "recovery cycle runs cold" hits
    (Ef.Controller.incremental_hits ctrl);
  ignore (cycle_on ~time_s:150 healthy);
  Alcotest.(check int) "next cycle runs warm" (hits + 1)
    (Ef.Controller.incremental_hits ctrl)

(* --- invariants under fault injection ----------------------------------- *)

(* Drive a controller through the canned chaos plan over the generated
   tiny world, presenting it exactly what the engine would: derated
   interface lists, stalled (cached) snapshots, delayed clocks. Whatever
   the faults do, two things must hold after every cycle:
   - no interface carries enforced load above its guard threshold unless
     the allocator declared it residual (capacity genuinely exhausted) or
     the cycle failed static (held overrides are not recomputed);
   - every prefix that has any candidate route is placed somewhere. *)
let test_controller_fault_invariants () =
  let world = N.Topo_gen.generate N.Topo_gen.small_config in
  let pop = world.N.Topo_gen.pop in
  let plan =
    match N.Scenario.find_fault_plan "chaos" with
    | Some p -> p
    | None -> Alcotest.fail "canned chaos plan missing"
  in
  let inj = Ef_fault.Injector.create plan in
  let config = Ef.Config.make ~max_snapshot_age_s:60 () in
  let ctrl = Ef.Controller.create ~config ~name:"fault-inv" () in
  let rng = Ef_util.Rng.create 42 in
  let last_snap = ref None in
  (* a downed link drops every session on it, exactly as the engine's
     injector wiring does; the outage ending re-announces saved tables *)
  let flap_saved = Hashtbl.create 8 in
  let flapped_down = ref [] in
  let apply_flaps time_s =
    List.iter
      (fun iface ->
        let iface_id = N.Iface.id iface in
        let down = Ef_fault.Injector.link_down inj ~iface_id ~time_s in
        List.iter
          (fun peer ->
            let pid = Bgp.Peer.id peer in
            let is_down = List.mem pid !flapped_down in
            if down && not is_down then begin
              if not (Hashtbl.mem flap_saved pid) then
                Hashtbl.replace flap_saved pid
                  (Bgp.Rib.adj_rib_in (N.Pop.rib pop) ~peer_id:pid);
              ignore (N.Pop.drop_peer pop ~peer_id:pid);
              flapped_down := pid :: !flapped_down
            end
            else if (not down) && is_down then begin
              List.iter
                (fun (prefix, attrs) ->
                  ignore (N.Pop.announce pop ~peer_id:pid prefix attrs))
                (Option.value (Hashtbl.find_opt flap_saved pid) ~default:[]);
              Hashtbl.remove flap_saved pid;
              flapped_down := List.filter (fun id -> id <> pid) !flapped_down
            end)
          (N.Pop.peers_on_iface pop ~iface_id))
      (N.Pop.interfaces pop)
  in
  for cycle = 0 to 19 do
    let time_s = cycle * 30 in
    apply_flaps time_s;
    let ifaces =
      List.map
        (fun iface ->
          N.Iface.derate iface
            ~factor:
              (Ef_fault.Injector.capacity_factor inj
                 ~iface_id:(N.Iface.id iface) ~time_s))
        (N.Pop.interfaces pop)
    in
    let rates =
      List.filter_map
        (fun p ->
          let w = world.N.Topo_gen.prefix_weight p in
          let jitter = 0.5 +. Ef_util.Rng.float rng 1.0 in
          let bps = w *. world.N.Topo_gen.total_peak_bps *. jitter in
          if bps > 1_000.0 then Some (p, bps) else None)
        world.N.Topo_gen.all_prefixes
    in
    let fresh = C.Snapshot.of_pop ~ifaces pop ~prefix_rates:rates ~time_s in
    let snap =
      if Ef_fault.Injector.bmp_stalled inj ~time_s then
        Option.value !last_snap ~default:fresh
      else begin
        last_snap := Some fresh;
        fresh
      end
    in
    let now_s = time_s + Ef_fault.Injector.cycle_delay_s inj ~time_s in
    let stats = Ef.Controller.cycle ~now_s ctrl snap in
    (* 1: the allocator never *assigns* above the configured limit — its
       final projection exceeds the overload threshold only on interfaces
       it declared residual (capacity genuinely exhausted). Checked on the
       allocation itself: the enforced set may lag it transiently because
       hysteresis holds overrides, which is damping, not over-allocation.
       Degraded cycles deliberately skip recomputation. *)
    (if Ef.Controller.degraded stats = None then
       let residual_ids =
         List.map
           (fun (i, _) -> N.Iface.id i)
           (Ef.Controller.residual_overloads stats)
       in
       let final = (Ef.Controller.allocator_result stats).Ef.Allocator.final in
       List.iter
         (fun (iface, util) ->
           if not (List.mem (N.Iface.id iface) residual_ids) then
             Alcotest.failf
               "t=%d: iface %s allocated to %.2f over limit but not declared \
                residual"
               time_s (N.Iface.name iface) util)
         (Ef.Projection.overloaded final
            ~threshold:(Ef.Config.default.Ef.Config.overload_threshold)));
    (* 2: every prefix with a candidate route keeps a placement *)
    let placed =
      List.fold_left
        (fun acc pl -> Bgp.Prefix.to_string pl.Ef.Projection.placed_prefix :: acc)
        []
        (Ef.Projection.placements (Ef.Controller.enforced stats))
    in
    List.iter
      (fun (p, _) ->
        if C.Snapshot.routes snap p <> [] then
          if not (List.mem (Bgp.Prefix.to_string p) placed) then
            Alcotest.failf "t=%d: prefix %s has routes but no placement" time_s
              (Bgp.Prefix.to_string p))
      (C.Snapshot.prefix_rates snap)
  done

let suite =
  [
    Alcotest.test_case "hysteresis installs new" `Quick test_hysteresis_installs_new;
    Alcotest.test_case "hysteresis keeps stable" `Quick test_hysteresis_keeps_stable;
    Alcotest.test_case "hysteresis min hold" `Quick
      test_hysteresis_min_hold_blocks_release;
    Alcotest.test_case "hysteresis release threshold" `Quick
      test_hysteresis_release_needs_low_utilization;
    Alcotest.test_case "hysteresis retarget" `Quick test_hysteresis_retarget_after_hold;
    Alcotest.test_case "hysteresis disabled" `Quick
      test_hysteresis_disabled_tracks_exactly;
    Alcotest.test_case "controller relieves" `Quick test_controller_cycle_relieves;
    Alcotest.test_case "controller gc minor words" `Quick
      test_controller_gc_minor_words;
    Alcotest.test_case "controller emits updates" `Quick
      test_controller_emits_bgp_updates;
    Alcotest.test_case "controller releases" `Quick
      test_controller_releases_when_demand_drops;
    Alcotest.test_case "controller stateless restart" `Quick
      test_controller_stateless_across_restart;
    Alcotest.test_case "controller bad config" `Quick test_controller_bad_config_rejected;
    Alcotest.test_case "controller low confidence holds" `Quick
      test_controller_low_confidence_holds;
    Alcotest.test_case "controller fault invariants" `Quick
      test_controller_fault_invariants;
  ]
