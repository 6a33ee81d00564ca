(* The end-to-end incremental pin (e13's correctness half at unit
   scale): a controller fed a {!Snapshot.patch} delta chain, which runs
   warm on every linked cycle, must match — byte for byte — a twin
   controller fed freshly assembled snapshots of the same content, which
   runs cold because an unlinked snapshot leaves it no warm state to
   advance. 100+ seeded worlds × churn sequences covering rate shifts,
   prefix withdraw/re-announce, candidate-route invalidation and Ef_fault
   capacity derates; compared per cycle on enforced overrides, totals,
   residuals, stale lists and per-interface loads (the last two also
   against a cold projection of the enforced set), and at the end on full
   provenance-trace bytes. *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
module Ef = Edge_fabric
module Trace = Ef_trace.Recorder
module Rng = Ef_util.Rng

let trace_bytes tr = Ef_obs.Json.to_string (Trace.to_json tr)

let override_list : Ef.Override.t list Alcotest.testable =
  Alcotest.testable (Fmt.Dump.list Ef.Override.pp) (fun a b -> a = b)

let loads_of proj ifaces =
  List.map
    (fun i ->
      (N.Iface.id i, Ef.Projection.load_bps proj ~iface_id:(N.Iface.id i)))
    ifaces

let iface_floats l = List.map (fun (i, u) -> (N.Iface.id i, u)) l

(* the config axes the incremental machinery interacts with: split-24
   adds synthetic placements the enforced derivation must not trip on,
   and a tight guard budget keeps overrides churning cycle to cycle *)
let configs =
  [|
    ("default", Ef.Config.default);
    ( "split-24",
      {
        Ef.Config.default with
        granularity = Split_24;
        overload_threshold = 0.85;
      } );
    ( "guard-2",
      {
        Ef.Config.default with
        guard = { Ef.Guard.default with max_overrides = Some 2 };
      } );
  |]

(* One seeded world driven [cycles] controller cycles in lockstep: the
   incremental side advances a Snapshot.patch delta chain; the reference
   side reassembles every snapshot from scratch, so it is cold every
   cycle. With [break_at], the incremental side receives a freshly
   assembled snapshot at that cycle instead of a patch — a collector
   restart: it must drop to cold there and patch on from the new chain. *)
let run_lockstep ?(flap = false) ?break_at ~seed ~cycles () =
  let cycle_s = 30 in
  let cfg_name, config = configs.(seed mod Array.length configs) in
  let w = Gen.world (2000 + seed) in
  let pop = w.N.Topo_gen.pop in
  let rib = N.Pop.rib pop in
  (* fault plan: one interface loses capacity over the middle cycles, so
     the warm path crosses capacity-only interface changes; with [flap]
     a second interface goes fully down and comes back repeatedly, so it
     also crosses interface removals and re-additions *)
  let iface_ids = List.map N.Iface.id (N.Pop.interfaces pop) in
  let derated_id = List.nth iface_ids (seed mod List.length iface_ids) in
  let flap_id = List.nth iface_ids ((seed + 1) mod List.length iface_ids) in
  let inj =
    Ef_fault.Injector.create
      (Ef_fault.Plan.make ~seed:(seed lxor 0xFA)
         (Ef_fault.Plan.Capacity_degradation
            {
              iface_id = derated_id;
              from_s = 2 * cycle_s;
              until_s = (cycles - 1) * cycle_s;
              factor = 0.5 +. (0.1 *. float_of_int (seed mod 4));
            }
         ::
         (if flap then
            [
              Ef_fault.Plan.Link_flap
                {
                  iface_id = flap_id;
                  from_s = 2 * cycle_s;
                  until_s = (cycles - 1) * cycle_s;
                  period_s = 4 * cycle_s;
                  down_s = 2 * cycle_s;
                };
            ]
          else [])))
  in
  let ifaces_at time_s =
    let live =
      List.filter
        (fun i ->
          not (Ef_fault.Injector.link_down inj ~iface_id:(N.Iface.id i) ~time_s))
        (N.Pop.interfaces pop)
    in
    Gen.derate_ifaces live ~factor_of:(fun iface_id ->
        Ef_fault.Injector.capacity_factor inj ~iface_id ~time_s)
  in
  (* route churn: prefixes whose current best announcement is withdrawn.
     Toggled per cycle; both sides see the same closure, the patch chain
     learns of a toggle only through [routes_changed]. *)
  let best_gone : (Bgp.Prefix.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let routes p =
    let rs = Bgp.Rib.ranked rib p in
    if Hashtbl.mem best_gone p then match rs with [] -> [] | _ :: tl -> tl
    else rs
  in
  let iface_of_peer ifaces peer_id =
    match N.Pop.peer pop peer_id with
    | None -> None
    | Some _ ->
        let id = N.Iface.id (N.Pop.iface_of_peer pop ~peer_id) in
        List.find_opt (fun i -> N.Iface.id i = id) ifaces
  in
  (* demand model shared by both sides: absolute rates, absent = withdrawn *)
  let base =
    Array.of_list
      (Gen.rates_of_world
         ~rate_factor:(0.85 +. (0.1 *. float_of_int (seed mod 4)))
         w)
  in
  let model : (Bgp.Prefix.t, float) Hashtbl.t = Hashtbl.create 64 in
  Array.iter (fun (p, r) -> Hashtbl.replace model p r) base;
  let assemble time_s =
    let ifaces = ifaces_at time_s in
    C.Snapshot.assemble
      ~obs:(Ef_obs.Registry.create ())
      ~routes
      ~iface_of_peer:(iface_of_peer ifaces)
      ~ifaces
      ~prefix_rates:(Hashtbl.fold (fun p r acc -> (p, r) :: acc) model [])
      ~time_s ()
  in
  let tr_incr = Trace.create () and tr_cold = Trace.create () in
  let incr =
    Ef.Controller.create ~config
      ~obs:(Ef_obs.Registry.create ())
      ~trace:tr_incr ~name:"pin" ()
  in
  let cold =
    Ef.Controller.create ~config
      ~obs:(Ef_obs.Registry.create ())
      ~trace:tr_cold ~name:"pin" ()
  in
  let snap = ref (assemble 0) in
  let down_cycles = ref 0 and up_after_down = ref 0 and patched = ref 0 in
  for cycle = 0 to cycles - 1 do
    let time_s = cycle * cycle_s in
    (if flap then
       let here =
         List.exists (fun i -> N.Iface.id i = flap_id) (ifaces_at time_s)
       in
       if not here then Stdlib.incr down_cycles
       else if !down_cycles > 0 then Stdlib.incr up_after_down);
    if cycle > 0 then begin
      (* deterministic churn: rate scales, withdraw/re-announce, and
         best-route toggles — a pure function of (seed, cycle) *)
      let rng = Rng.create ((seed * 0x9E37) lxor cycle) in
      let n = Array.length base in
      let touched = Hashtbl.create 16 in
      let k = 1 + Rng.int rng (max 1 (n / 6)) in
      for _ = 1 to k do
        let i = Rng.int rng n in
        let p, base_r = base.(i) in
        if not (Hashtbl.mem touched p) then
          let r =
            if Rng.chance rng 0.15 then 0.0 (* withdraw *)
            else base_r *. (0.5 +. Rng.float rng 1.0)
          in
          Hashtbl.replace touched p r
      done;
      let routes_changed = ref [] in
      for _ = 1 to Rng.int rng 3 do
        let p, _ = base.(Rng.int rng n) in
        if not (List.exists (Bgp.Prefix.equal p) !routes_changed) then begin
          if Hashtbl.mem best_gone p then Hashtbl.remove best_gone p
          else Hashtbl.replace best_gone p ();
          routes_changed := p :: !routes_changed
        end
      done;
      let rate_updates =
        Hashtbl.fold (fun p r acc -> (p, r) :: acc) touched []
      in
      List.iter
        (fun (p, r) ->
          if r <= 0.0 then Hashtbl.remove model p
          else Hashtbl.replace model p r)
        rate_updates;
      snap :=
        if break_at = Some cycle then assemble time_s
        else begin
          Stdlib.incr patched;
          C.Snapshot.patch
            ~obs:(Ef_obs.Registry.create ())
            ~prev:!snap ~routes ~ifaces:(ifaces_at time_s)
            ~routes_changed:!routes_changed ~rate_updates ~time_s ()
        end
    end;
    let s_incr = Ef.Controller.cycle incr !snap in
    let ref_snap = assemble time_s in
    let s_cold = Ef.Controller.cycle cold ref_snap in
    let ctx = Printf.sprintf "seed %d (%s) cycle %d" seed cfg_name cycle in
    Alcotest.(check int)
      (ctx ^ ": warm path engaged on every patched cycle")
      !patched
      (Ef.Controller.incremental_hits incr);
    Alcotest.check override_list (ctx ^ ": enforced overrides")
      (Ef.Controller.overrides_enforced s_cold)
      (Ef.Controller.overrides_enforced s_incr);
    Alcotest.(check (float 0.0))
      (ctx ^ ": total_bps")
      (Ef.Controller.total_bps s_cold)
      (Ef.Controller.total_bps s_incr);
    Alcotest.(check (float 0.0))
      (ctx ^ ": detoured_bps")
      (Ef.Controller.detoured_bps s_cold)
      (Ef.Controller.detoured_bps s_incr);
    Alcotest.(check (list (pair int (float 0.0))))
      (ctx ^ ": residual overloads")
      (iface_floats (Ef.Controller.residual_overloads s_cold))
      (iface_floats (Ef.Controller.residual_overloads s_incr));
    Alcotest.(check (list Helpers.prefix_t))
      (ctx ^ ": stale overrides")
      (Ef.Projection.stale_overrides (Ef.Controller.enforced s_cold))
      (Ef.Projection.stale_overrides (Ef.Controller.enforced s_incr));
    let ifaces = C.Snapshot.ifaces !snap in
    Alcotest.(check (list (pair int (float 0.0))))
      (ctx ^ ": enforced loads")
      (loads_of (Ef.Controller.enforced s_cold) ifaces)
      (loads_of (Ef.Controller.enforced s_incr) ifaces);
    (* the checker's own oracle: a cold projection of the incremental
       side's enforced set on the assembled snapshot *)
    let projected =
      Ef.Projection.project
        ~overrides:(Ef.Override.lookup (Ef.Controller.overrides_enforced s_incr))
        ref_snap
    in
    Alcotest.(check (list Helpers.prefix_t))
      (ctx ^ ": stale overrides vs projection")
      (Ef.Projection.stale_overrides projected)
      (Ef.Projection.stale_overrides (Ef.Controller.enforced s_incr));
    Alcotest.(check (list (pair int (float 0.0))))
      (ctx ^ ": enforced loads vs projection")
      (loads_of projected ifaces)
      (loads_of (Ef.Controller.enforced s_incr) ifaces)
  done;
  Alcotest.(check int)
    (Printf.sprintf "seed %d (%s): cold reference never warm" seed cfg_name)
    0
    (Ef.Controller.incremental_hits cold);
  if flap then begin
    (* the plan must actually have exercised removal and re-addition —
       otherwise the case silently degrades to the capacity-only pin *)
    Alcotest.(check bool)
      (Printf.sprintf "seed %d (%s): flap removed the interface" seed cfg_name)
      true (!down_cycles > 0);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d (%s): flap re-added the interface" seed cfg_name)
      true (!up_after_down > 0)
  end;
  Alcotest.(check string)
    (Printf.sprintf "seed %d (%s): trace bytes" seed cfg_name)
    (trace_bytes tr_cold) (trace_bytes tr_incr)

let test_lockstep_seeded_worlds () =
  for seed = 0 to 99 do
    run_lockstep ~seed ~cycles:5 ()
  done

(* a longer single sequence so hysteresis ages, guard budgets and
   override retirement all cross cycle boundaries on the warm path *)
let test_lockstep_long_sequence () = run_lockstep ~seed:7 ~cycles:16 ()

(* interface-set churn on the warm path: a link flaps down and back up
   across a 16-cycle sequence, so the delta chain carries removals and
   re-additions — the incremental side must keep engaging every patched
   cycle (never fall back to cold) and still match the cold reference
   down to trace bytes. A handful of seeds rotates the flapped interface
   and the allocator config axes. *)
let test_lockstep_flap_sequence () =
  List.iter
    (fun seed -> run_lockstep ~flap:true ~seed ~cycles:16 ())
    [ 0; 1; 2; 3; 7 ]

(* warm -> cold -> warm: mid-run the incremental side is handed a freshly
   assembled (unlinked) snapshot, as after a collector restart, and then
   patches on from it. It must go cold on exactly that cycle, warm again
   on the next, and match the cold reference on every cycle. The four
   seeds cover every config axis; the flap plan puts interface removals
   on both sides of the break. *)
let test_lockstep_cold_reentry () =
  List.iter
    (fun seed -> run_lockstep ~flap:true ~break_at:6 ~seed ~cycles:12 ())
    [ 0; 1; 2; 3 ]


(* --- ordered slots carried in the allocator's warm image ---------------- *)

module W = Ef.Projection.Working

let counter reg name =
  match Ef_obs.Registry.find reg name with
  | Some (Ef_obs.Registry.Counter_m c) ->
      int_of_float (Ef_obs.Counter.value c)
  | Some _ | None -> 0

(* A seeded world under sustained pressure: rates scaled until the
   BGP-preferred placement overloads at least one interface that relief
   can bring back under threshold, so every cycle of a gently churned
   sequence relieves the same interfaces. *)
type pressure = {
  p_base : (Bgp.Prefix.t * float) array;
  p_snap : C.Snapshot.t;
  p_hot : int list; (* ids overloaded in the preferred placement *)
}

let pressured seed =
  let w = Gen.world (4000 + seed) in
  let try_factor f =
    let base = Array.of_list (Gen.rates_of_world ~rate_factor:f w) in
    let snap =
      C.Snapshot.of_pop w.N.Topo_gen.pop ~prefix_rates:(Array.to_list base)
        ~time_s:0
    in
    let r =
      Ef.Allocator.run ~obs:(Ef_obs.Registry.create ())
        ~config:Ef.Config.default snap
    in
    let hot =
      List.map
        (fun (i, _) -> N.Iface.id i)
        (Ef.Projection.overloaded r.Ef.Allocator.before
           ~threshold:Ef.Config.default.Ef.Config.overload_threshold)
    in
    if hot <> [] && r.Ef.Allocator.residual = [] then
      Some { p_base = base; p_snap = snap; p_hot = List.sort compare hot }
    else None
  in
  match List.find_map try_factor [ 1.0; 1.1; 1.2; 1.3; 1.5; 1.8 ] with
  | Some p -> p
  | None -> Alcotest.failf "world %d: no rate factor gives feasible relief" seed

(* one gentle churn step: a few prefixes' rates move by at most 2% *)
let churned p ~rng ~prev ?ifaces time_s =
  let n = Array.length p.p_base in
  let rate_updates =
    List.init (1 + Rng.int rng 8) (fun _ ->
        let pfx, r = p.p_base.(Rng.int rng n) in
        (pfx, r *. (0.98 +. Rng.float rng 0.04)))
  in
  C.Snapshot.patch ~obs:(Ef_obs.Registry.create ()) ~prev ?ifaces
    ~rate_updates ~time_s ()

let check_equals_cold ctx ~config snap (r : Ef.Allocator.result) =
  let cold = Ef.Allocator.run ~obs:(Ef_obs.Registry.create ()) ~config snap in
  Alcotest.check override_list (ctx ^ ": overrides = cold")
    cold.Ef.Allocator.overrides r.Ef.Allocator.overrides;
  Alcotest.(check int)
    (ctx ^ ": moves = cold")
    cold.Ef.Allocator.moves_considered r.Ef.Allocator.moves_considered

(* Sustained relief: the controller relieves the same interfaces on
   every one of 24 warm cycles, and builds their slots on the first
   cycle only — each later cycle reads the slot its warm image carried
   in, kept current by the warm patch. *)
let test_slots_built_once_under_sustained_relief () =
  let p = pressured 0 in
  let reg = Ef_obs.Registry.create () in
  let ctl = Ef.Controller.create ~obs:reg ~name:"slots" () in
  let rng = Rng.create 11 in
  let snap = ref p.p_snap in
  let first = ref 0 in
  let cycles = 24 in
  for cycle = 0 to cycles - 1 do
    if cycle > 0 then snap := churned p ~rng ~prev:!snap (cycle * 30);
    let stats = Ef.Controller.cycle ctl !snap in
    let ctx = Printf.sprintf "cycle %d" cycle in
    Alcotest.(check bool)
      (ctx ^ ": relief ran") true
      ((Ef.Controller.allocator_result stats).Ef.Allocator.overrides <> []);
    if cycle = 0 then first := counter reg "allocator.slot_builds"
  done;
  Alcotest.(check int) "one slot per overloaded interface on cycle 0"
    (List.length p.p_hot) !first;
  Alcotest.(check int) "warm cycles" (cycles - 1)
    (Ef.Controller.incremental_hits ctl);
  Alcotest.(check int) "no slot built after cycle 0" !first
    (counter reg "allocator.slot_builds")

(* An interface that appears past the id universe grows the image's
   per-interface arrays; the overloaded interface's carried slot must
   survive the growth (no rebuild on the next cycle). *)
let test_slot_kept_across_universe_growth () =
  let p = pressured 1 in
  let config = Ef.Config.default in
  let reg = Ef_obs.Registry.create () in
  let _, w0 = Ef.Allocator.run_warm ~obs:reg ~config p.p_snap in
  let built = counter reg "allocator.slot_builds" in
  Alcotest.(check (list int)) "carried slots = overloaded" p.p_hot
    (W.indexed (Ef.Allocator.warm_image w0));
  let ifaces = C.Snapshot.ifaces p.p_snap in
  let fresh_id = C.Snapshot.max_iface_id p.p_snap + 3 in
  let fresh =
    N.Iface.make ~id:fresh_id ~name:"fresh" ~capacity_bps:1e10 ~shared:false
  in
  let snap =
    churned p ~rng:(Rng.create 5) ~prev:p.p_snap ~ifaces:(ifaces @ [ fresh ]) 30
  in
  let r1, w1 = Ef.Allocator.run_warm ~obs:reg ~config ~warm:w0 snap in
  Alcotest.(check bool) "warm across the add" true
    (Ef.Allocator.warm_valid ~warm:w0 snap);
  Alcotest.(check int) "no slot rebuilt after the add" built
    (counter reg "allocator.slot_builds");
  Alcotest.(check (list int)) "slots still carried" p.p_hot
    (W.indexed (Ef.Allocator.warm_image w1));
  check_equals_cold "after the add" ~config snap r1

(* Removing an overloaded interface drops its slot: the interface-delta
   pass discards it whole, and the retained image carries no slot for an
   id the snapshot no longer has. *)
let test_slot_dropped_with_removed_iface () =
  let p = pressured 2 in
  let config = Ef.Config.default in
  let reg = Ef_obs.Registry.create () in
  let _, w0 = Ef.Allocator.run_warm ~obs:reg ~config p.p_snap in
  let gone = List.hd p.p_hot in
  let ifaces =
    List.filter (fun i -> N.Iface.id i <> gone) (C.Snapshot.ifaces p.p_snap)
  in
  let snap = churned p ~rng:(Rng.create 6) ~prev:p.p_snap ~ifaces 30 in
  let d = C.Snapshot.diff (Ef.Allocator.warm_snapshot w0) snap in
  let img = Ef.Allocator.warm_image w0 in
  Alcotest.(check bool) "slot carried before the removal" true
    (List.mem gone (W.indexed img));
  W.apply_iface_delta img ~snapshot:snap ~delta:d.C.Snapshot.iface_changes ();
  Alcotest.(check bool) "iface delta drops the slot" false
    (List.mem gone (W.indexed img));
  let r1, w1 = Ef.Allocator.run_warm ~obs:reg ~config ~warm:w0 snap in
  Alcotest.(check bool) "warm image carries no slot for it" false
    (List.mem gone (W.indexed (Ef.Allocator.warm_image w1)));
  check_equals_cold "after the removal" ~config snap r1

(* The slots to carry are picked under the run's per-interface
   thresholds: an interface under the global threshold but over its own
   is relieved, so its slot rides the warm image. *)
let test_slot_kept_under_iface_threshold () =
  let p = pressured 3 in
  let before = Ef.Projection.project p.p_snap in
  let cool =
    List.filter_map
      (fun i ->
        let u = Ef.Projection.utilization before i in
        if u > 0.3 && u <= Ef.Config.default.Ef.Config.overload_threshold then
          Some (N.Iface.id i, u)
        else None)
      (C.Snapshot.ifaces p.p_snap)
  in
  let id, u =
    match cool with
    | c :: _ -> c
    | [] -> Alcotest.fail "no interface between 30% and the global threshold"
  in
  let config =
    { Ef.Config.default with iface_thresholds = [ (id, u -. 0.05) ] }
  in
  let carried config =
    let _, w =
      Ef.Allocator.run_warm ~obs:(Ef_obs.Registry.create ()) ~config p.p_snap
    in
    W.indexed (Ef.Allocator.warm_image w)
  in
  Alcotest.(check (list int)) "global threshold: the globally hot only"
    p.p_hot (carried Ef.Config.default);
  Alcotest.(check (list int)) "per-interface threshold: the locally hot too"
    (List.sort_uniq compare (id :: p.p_hot))
    (carried config)

(* Thresholds are resolved once per run: a bad [iface_thresholds] entry
   is reported once per cycle, not once per use. *)
let test_bad_threshold_counted_once_per_cycle () =
  let p = pressured 0 in
  let config = { Ef.Config.default with iface_thresholds = [ (9999, 0.5) ] } in
  let reg = Ef_obs.Registry.create () in
  let rng = Rng.create 3 in
  let warm = ref None and snap = ref p.p_snap in
  for cycle = 1 to 4 do
    if cycle > 1 then snap := churned p ~rng ~prev:!snap (cycle * 30);
    let _, w = Ef.Allocator.run_warm ~obs:reg ~config ?warm:!warm !snap in
    warm := Some w;
    Alcotest.(check int)
      (Printf.sprintf "cycle %d" cycle)
      cycle
      (counter reg "allocator.iface_thresholds.dropped")
  done

(* The enforced-projection stage costs O(changes): on a dfz world under
   sustained relief — the busiest interface short by its [moves] largest
   prefixes, every other one roomy — the active set grows to hundreds of
   overrides, yet each cycle re-decides only the overrides hysteresis
   holds against the allocator's wish plus the guard's drops (no split
   keys at [Bgp_prefix] granularity), and the result still equals a cold
   projection of the active set. *)
let test_project_redecides_only_changes () =
  let moves = 150 in
  let gen = N.Dfz.create (N.Dfz.config ~seed:5 ~n_prefixes:3_000 ()) in
  let with_capacity i cap =
    N.Iface.make ~id:(N.Iface.id i) ~name:(N.Iface.name i) ~capacity_bps:cap
      ~shared:(N.Iface.shared i)
  in
  let assemble ifaces =
    C.Snapshot.assemble ~obs:(Ef_obs.Registry.create ())
      ~routes:(N.Dfz.routes gen) ~iface_of_peer:(N.Dfz.iface_of_peer gen)
      ~ifaces ~prefix_rates:(N.Dfz.current_rates gen) ~time_s:0 ()
  in
  let roomy =
    List.map
      (fun i -> with_capacity i (N.Dfz.total_rate gen))
      (N.Dfz.ifaces gen)
  in
  let preferred = Ef.Projection.project (assemble roomy) in
  let load i = Ef.Projection.load_bps preferred ~iface_id:(N.Iface.id i) in
  let hot =
    List.fold_left (fun h i -> if load i > load h then i else h)
      (List.hd roomy) roomy
  in
  let rates =
    List.filteri (fun k _ -> k < moves)
      (Ef.Projection.placements_on preferred ~iface_id:(N.Iface.id hot))
    |> List.map (fun (pl : Ef.Projection.placement) ->
           pl.Ef.Projection.rate_bps)
  in
  let excess = List.fold_left ( +. ) 0.0 rates in
  let last = List.fold_left Float.min infinity rates in
  let thr = Ef.Config.default.Ef.Config.overload_threshold in
  let ifaces =
    List.map
      (fun i ->
        if N.Iface.id i = N.Iface.id hot then
          with_capacity i ((load hot -. excess +. (0.5 *. last)) /. thr)
        else i)
      roomy
  in
  let reg = Ef_obs.Registry.create () in
  let ctl = Ef.Controller.create ~obs:reg ~name:"relief" () in
  let redecided () =
    match Ef_obs.Registry.find reg "controller.project.redecided" with
    | Some (Ef_obs.Registry.Histogram_m h) ->
        int_of_float (Ef_obs.Histogram.sum h)
    | Some _ | None -> Alcotest.fail "no controller.project.redecided histogram"
  in
  let snap = ref (assemble ifaces) in
  let held_cycles = ref 0 in
  for cycle = 0 to 29 do
    if cycle > 0 then begin
      let ev = N.Dfz.churn gen ~cycle in
      snap :=
        C.Snapshot.patch ~obs:(Ef_obs.Registry.create ()) ~prev:!snap
          ~routes_changed:ev.N.Dfz.routes_changed
          ~rate_updates:ev.N.Dfz.rate_updates ~time_s:(cycle * 30) ()
    end;
    let before = redecided () in
    let stats = Ef.Controller.cycle ctl !snap in
    let ctx = Printf.sprintf "cycle %d" cycle in
    let held = List.length (Ef.Controller.overrides_held stats) in
    let dropped = List.length (Ef.Controller.guard_dropped stats) in
    let active = List.length (Ef.Controller.overrides_enforced stats) in
    if held > 0 then incr held_cycles;
    Alcotest.(check (list Helpers.prefix_t))
      (ctx ^ ": no split keys") []
      (Ef.Controller.allocator_result stats).Ef.Allocator.split_keys;
    Alcotest.(check int)
      (ctx ^ ": re-decided = held + dropped")
      (held + dropped)
      (redecided () - before);
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d re-decided, well below %d active" ctx
         (held + dropped) active)
      true
      (active >= moves && 5 * (held + dropped) < active);
    let cold =
      Ef.Projection.project
        ~overrides:(Ef.Override.lookup (Ef.Controller.overrides_enforced stats))
        !snap
    in
    Alcotest.(check bool) (ctx ^ ": enforced = cold projection") true
      (Ef.Controller.enforced stats = cold)
  done;
  Alcotest.(check int) "warm cycles" 29 (Ef.Controller.incremental_hits ctl);
  Alcotest.(check bool) "hysteresis held overrides on some cycles" true
    (!held_cycles > 0)

let suite =
  [
    Alcotest.test_case "incremental = cold on 100 seeded churn sequences"
      `Quick test_lockstep_seeded_worlds;
    Alcotest.test_case "incremental = cold on a long sequence" `Quick
      test_lockstep_long_sequence;
    Alcotest.test_case "incremental = cold across link flaps" `Quick
      test_lockstep_flap_sequence;
    Alcotest.test_case "cold re-entry on an unlinked snapshot" `Quick
      test_lockstep_cold_reentry;
    Alcotest.test_case "slots built once under sustained relief" `Quick
      test_slots_built_once_under_sustained_relief;
    Alcotest.test_case "carried slot survives id-universe growth" `Quick
      test_slot_kept_across_universe_growth;
    Alcotest.test_case "removed interface drops its slot" `Quick
      test_slot_dropped_with_removed_iface;
    Alcotest.test_case "slot kept under a per-interface threshold" `Quick
      test_slot_kept_under_iface_threshold;
    Alcotest.test_case "bad iface threshold counted once per cycle" `Quick
      test_bad_threshold_counted_once_per_cycle;
    Alcotest.test_case "enforced stage re-decides only what changed" `Quick
      test_project_redecides_only_changes;
  ]
