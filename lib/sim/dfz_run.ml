module Snapshot = Ef_collector.Snapshot
module Controller = Edge_fabric.Controller
module Projection = Edge_fabric.Projection
module Override = Edge_fabric.Override
module Dfz = Ef_netsim.Dfz
module Clock = Ef_obs.Clock
module Json = Ef_obs.Json

type config = {
  cycles : int;
  cycle_s : int;
  verify : bool;
  faults : Ef_fault.Plan.t option;
}

let config ?(cycles = 30) ?(cycle_s = 30) ?(verify = false) ?faults () =
  if cycles < 1 then invalid_arg "Dfz_run.config: cycles must be positive";
  if cycle_s < 1 then invalid_arg "Dfz_run.config: cycle_s must be positive";
  { cycles; cycle_s; verify; faults }

type report = {
  prefix_count : int;
  cycles_run : int;
  incremental_hits : int;
  dirty_total : int;
  iface_event_cycles : int list;
  cycle_seconds : float array;
  verified_cycles : int;
  mismatches : string list;
}

(* nearest-rank percentile over the recorded wall times *)
let percentile times q =
  let n = Array.length times in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy times in
    Array.sort Float.compare sorted;
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

(* Cycle 0 assembles the whole table cold; every later cycle is an
   incremental patch. Mixing the two regimes into one distribution made
   the headline p99 just "the cold build, again", so the headline
   percentiles cover the steady-state cycles only and the cold build is
   reported on its own. A single-cycle run has no steady state — its one
   (cold) cycle is the whole distribution. *)
let cold_s r = if Array.length r.cycle_seconds = 0 then 0.0 else r.cycle_seconds.(0)

let steady_times r =
  let n = Array.length r.cycle_seconds in
  if n <= 1 then r.cycle_seconds else Array.sub r.cycle_seconds 1 (n - 1)

let p50_s r = percentile (steady_times r) 0.50
let p99_s r = percentile (steady_times r) 0.99
let max_s r = Array.fold_left Float.max 0.0 (steady_times r)

let mean_s r =
  let times = steady_times r in
  let n = Array.length times in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 times /. float_of_int n

(* --- differential check against the cold pipeline --------------------

   The reference side replays an identical generator (same config, pure
   hash schedules) but assembles every snapshot from scratch. Those
   snapshots are unlinked, so the reference controller has no warm state
   to advance and runs cold end to end. Each cycle is also checked against
   a cold projection of the incremental side's own enforced override set
   on the freshly assembled snapshot, so the enforced loads are pinned
   even where both controllers would share a bug in their enforced
   derivation. Equality is exact, floats included: the incremental path is
   built to reproduce the cold path's accumulation order, not approximate
   it. *)

let check_cycle ~cycle ~stats ~ref_snap ~ref_stats =
  let buf = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> buf := s :: !buf) fmt in
  let say what = fail "cycle %d: %s differ" cycle what in
  if Controller.overrides_enforced stats <> Controller.overrides_enforced ref_stats
  then say "enforced overrides";
  if Controller.total_bps stats <> Controller.total_bps ref_stats then
    say "total_bps";
  if Controller.detoured_bps stats <> Controller.detoured_bps ref_stats then
    say "detoured_bps";
  if Controller.residual_overloads stats <> Controller.residual_overloads ref_stats
  then say "residual overloads";
  let enf = Controller.enforced stats in
  let oracle =
    Projection.project
      ~overrides:(Override.lookup (Controller.overrides_enforced stats))
      ref_snap
  in
  List.iter
    (fun (what, other) ->
      if Projection.stale_overrides enf <> Projection.stale_overrides other then
        say (what ^ " stale overrides");
      List.iter
        (fun iface ->
          let id = Ef_netsim.Iface.id iface in
          let a = Projection.load_bps enf ~iface_id:id
          and b = Projection.load_bps other ~iface_id:id in
          if a <> b then
            fail "cycle %d: %s enforced load on iface %d: %.17g <> %.17g" cycle
              what id a b)
        (Projection.ifaces enf))
    [ ("reference", Controller.enforced ref_stats); ("projected", oracle) ];
  List.rev !buf

let snapshot_of_gen ?obs ?ifaces gen ~time_s =
  Snapshot.assemble ?obs
    ~routes:(Dfz.routes gen)
    ~iface_of_peer:(Dfz.iface_of_peer gen)
    ~ifaces:(Option.value ifaces ~default:(Dfz.ifaces gen))
    ~prefix_rates:(Dfz.current_rates gen)
    ~time_s ()

(* The interface set the fault plan leaves standing at [time_s]: downed
   links disappear (their sessions are flushed, so the warm path must
   re-place every prefix that egressed there), degraded links keep their
   id with a scaled capacity. Both the incremental and the reference
   side derive their list from the same injector — queries are pure in
   [time_s], so the two worlds see byte-identical interface sets. *)
let faulted_ifaces inj ifaces ~time_s =
  List.filter_map
    (fun ifc ->
      let id = Ef_netsim.Iface.id ifc in
      if Ef_fault.Injector.link_down inj ~iface_id:id ~time_s then None
      else
        Some
          (Ef_netsim.Iface.derate ifc
             ~factor:(Ef_fault.Injector.capacity_factor inj ~iface_id:id ~time_s)))
    ifaces

(* --- the cycle loop ------------------------------------------------------

   The loop drives a [world]: something that builds a cold snapshot of
   its current state and advances one cycle, returning exactly the delta
   it applied. Both world kinds — the {!Dfz} generator and the MRT-seeded
   RIB — are pure in their config and cycle index, so a second,
   freshly built world replays the first: that is verify's cold twin. *)

type world = {
  ifaces : Ef_netsim.Iface.t list;  (* the unfaulted interface set *)
  assemble :
    obs:Ef_obs.Registry.t -> ifaces:Ef_netsim.Iface.t list -> time_s:int ->
    Snapshot.t;
  churn : cycle:int -> Dfz.churn_event;
}

let dfz_world dfz_cfg () =
  let gen = Dfz.create dfz_cfg in
  {
    ifaces = Dfz.ifaces gen;
    assemble =
      (fun ~obs ~ifaces ~time_s -> snapshot_of_gen ~obs ~ifaces gen ~time_s);
    churn = (fun ~cycle -> Dfz.churn gen ~cycle);
  }

let drive ?obs ?(trace = Ef_trace.Recorder.noop)
    ?(health = Ef_health.Tracker.noop) ~config ~name new_world =
  let obs = match obs with Some r -> r | None -> Ef_obs.Registry.default () in
  let world = new_world () in
  let ctl = Controller.create ~obs ~trace ~name () in
  (* the cold twin: own world, own controller, own throwaway registry, no
     shared state; its snapshots are assembled afresh every cycle, so it
     never runs warm, and its telemetry lands nowhere *)
  let reference =
    if config.verify then
      let ref_obs = Ef_obs.Registry.create () in
      Some
        ( new_world (),
          ref_obs,
          Controller.create ~obs:ref_obs ~name:(name ^ "-ref") () )
    else None
  in
  let injector = Option.map Ef_fault.Injector.create config.faults in
  (* [None] when no plan: patch then reuses the parent's interface set
     for free instead of re-diffing an identical list every cycle *)
  let faulted w ~time_s =
    Option.map (fun inj -> faulted_ifaces inj w.ifaces ~time_s) injector
  in
  let cold_snapshot w ~obs ~time_s =
    w.assemble ~obs
      ~ifaces:(Option.value (faulted w ~time_s) ~default:w.ifaces)
      ~time_s
  in
  let times = Array.make config.cycles 0.0 in
  let dirty_total = ref 0 in
  let iface_event_cycles = ref [] in
  let verified = ref 0 in
  let mismatches = ref [] in
  let snap = ref (cold_snapshot world ~obs ~time_s:0) in
  for cycle = 0 to config.cycles - 1 do
    let time_s = cycle * config.cycle_s in
    let t0 = Clock.now_ns () in
    if cycle > 0 then begin
      (* advance the world and thread the delta through the snapshot
         chain — this, not just the controller call, is the end-to-end
         incremental cycle the acceptance clock covers *)
      let ev = world.churn ~cycle in
      dirty_total :=
        !dirty_total
        + List.length ev.Dfz.rate_updates
        + List.length ev.Dfz.routes_changed;
      let prev = !snap in
      snap :=
        Snapshot.patch ~obs ~prev
          ?ifaces:(faulted world ~time_s)
          ~routes_changed:ev.Dfz.routes_changed
          ~rate_updates:ev.Dfz.rate_updates
          ~time_s ();
      (* linked diff is O(1): the patch recorded its own delta *)
      if (Snapshot.diff prev !snap).Snapshot.iface_changes <> [] then
        iface_event_cycles := cycle :: !iface_event_cycles
    end;
    let stats = Controller.cycle ctl !snap in
    times.(cycle) <- Clock.elapsed_s t0;
    (* the dfz driver has no feed retry machinery: never stale *)
    Engine.observe_health health ~time_s ~duration_s:times.(cycle)
      ~stale:false (Some stats);
    match reference with
    | None -> ()
    | Some (ref_world, ref_obs, ref_ctl) ->
        if cycle > 0 then
          ignore (ref_world.churn ~cycle : Dfz.churn_event);
        let ref_snap = cold_snapshot ref_world ~obs:ref_obs ~time_s in
        let ref_stats = Controller.cycle ref_ctl ref_snap in
        incr verified;
        if Controller.incremental_hits ref_ctl > 0 then
          mismatches :=
            !mismatches @ [ Printf.sprintf "cycle %d: reference ran warm" cycle ];
        mismatches :=
          !mismatches @ check_cycle ~cycle ~stats ~ref_snap ~ref_stats
  done;
  {
    prefix_count = Snapshot.prefix_count !snap;
    cycles_run = config.cycles;
    incremental_hits = Controller.incremental_hits ctl;
    dirty_total = !dirty_total;
    iface_event_cycles = List.rev !iface_event_cycles;
    cycle_seconds = times;
    verified_cycles = !verified;
    mismatches = !mismatches;
  }

let run ?obs ?trace ?health ?(config = config ()) dfz_cfg =
  drive ?obs ?trace ?health ~config ~name:"dfz" (dfz_world dfz_cfg)

let report_to_json r =
  Json.Obj
    [
      ("prefix_count", Json.Int r.prefix_count);
      ("cycles_run", Json.Int r.cycles_run);
      ("incremental_hits", Json.Int r.incremental_hits);
      ("dirty_total", Json.Int r.dirty_total);
      ( "iface_event_cycles",
        Json.List (List.map (fun c -> Json.Int c) r.iface_event_cycles) );
      ("cold_s", Json.Float (cold_s r));
      ("p50_s", Json.Float (p50_s r));
      ("p99_s", Json.Float (p99_s r));
      ("max_s", Json.Float (max_s r));
      ("mean_s", Json.Float (mean_s r));
      ("verified_cycles", Json.Int r.verified_cycles);
      ("mismatches", Json.List (List.map (fun m -> Json.String m) r.mismatches));
    ]

let pp_report ppf r =
  Format.fprintf ppf
    "dfz: %d prefixes, %d cycles (%d incremental), %d dirty events%s, cold \
     %.3fs, steady p50 %.3fs p99 %.3fs max %.3fs%s"
    r.prefix_count r.cycles_run r.incremental_hits r.dirty_total
    (match List.length r.iface_event_cycles with
    | 0 -> ""
    | n -> Printf.sprintf ", %d iface-churn cycles" n)
    (cold_s r) (p50_s r) (p99_s r) (max_s r)
    (if r.verified_cycles = 0 then ""
     else
       Printf.sprintf ", verified %d cycles (%d mismatches)" r.verified_cycles
         (List.length r.mismatches))

(* --- MRT-seeded runs --------------------------------------------------

   A RouteViews dump carries routes but no demand and no capacities, so
   both are synthesized: Zipf rates over the dump's prefixes (rank
   permutation seeded like Dfz's) and one interface per dump peer sized
   so the busiest interface needs relief. Cycles then drift rates
   deterministically through the patch chain — the dump seeds the RIB,
   the incremental machinery does the rest. *)

let mrt_world ?(total_bps = 40e9) ?(zipf_s = 1.0) ~seed dump =
  match Ef_bgp.Mrt.to_rib dump with
  | Error e -> Error e
  | Ok rib ->
      let prefixes =
        Ef_bgp.Rib.fold (fun p _ acc -> p :: acc) rib []
        |> List.rev |> Array.of_list
      in
      let n = Array.length prefixes in
      let peer_ids = Ef_bgp.Rib.peer_ids rib in
      if n = 0 then Error (Ef_bgp.Mrt.Malformed "dump has no routed prefixes")
      else if peer_ids = [] then
        (* routes but no resolvable peers would otherwise make an
           all-unroutable world that runs "successfully" *)
        Error (Ef_bgp.Mrt.Malformed "dump has no usable peer interfaces")
      else begin
        let zipf = Ef_util.Zipf.create ~n ~s:zipf_s in
        let probs = Ef_util.Zipf.weights zipf in
        let perm = Array.init n Fun.id in
        Ef_util.Rng.shuffle (Ef_util.Rng.create (seed lxor 0x317)) perm;
        let base_rates =
          Array.init n (fun i -> total_bps *. probs.(perm.(i)))
        in
        let fair = total_bps /. float_of_int (List.length peer_ids) in
        let ifaces =
          List.mapi
            (fun i peer_id ->
              Ef_netsim.Iface.make ~id:peer_id
                ~name:(Printf.sprintf "mrt-if%d" peer_id)
                ~capacity_bps:(if i = 0 then 0.8 *. fair else 1.4 *. fair)
                ~shared:false)
            peer_ids
        in
        let by_id = Hashtbl.create (List.length ifaces) in
        List.iter
          (fun ifc -> Hashtbl.replace by_id (Ef_netsim.Iface.id ifc) ifc)
          ifaces;
        (* everything above is shared and immutable; a world's own state
           is its current rates, of which ~1% drift per cycle,
           deterministic in (seed, cycle) *)
        Ok
          (fun () ->
            let rates = Array.copy base_rates in
            let assemble ~obs ~ifaces ~time_s =
              let prefix_rates = ref [] in
              for i = n - 1 downto 0 do
                if rates.(i) > 0.0 then
                  prefix_rates := (prefixes.(i), rates.(i)) :: !prefix_rates
              done;
              Snapshot.assemble ~obs
                ~routes:(Ef_bgp.Rib.ranked_view rib)
                ~iface_of_peer:(Hashtbl.find_opt by_id)
                ~ifaces ~prefix_rates:!prefix_rates ~time_s ()
            in
            let churn ~cycle =
              let rng = Ef_util.Rng.create ((seed * 0x9E37) lxor cycle) in
              let n_events = max 1 (n / 100) in
              let touched = Hashtbl.create (2 * n_events) in
              let updates = ref [] in
              for _ = 1 to n_events do
                let i = Ef_util.Rng.int rng n in
                if not (Hashtbl.mem touched i) then begin
                  Hashtbl.replace touched i ();
                  let r = base_rates.(i) *. (0.5 +. Ef_util.Rng.float rng 1.0) in
                  rates.(i) <- r;
                  updates := (prefixes.(i), r) :: !updates
                end
              done;
              { Dfz.rate_updates = !updates; routes_changed = [] }
            in
            { ifaces; assemble; churn })
      end

let run_mrt ?obs ?trace ?health ?(config = config ()) ?total_bps ?zipf_s
    ?(seed = 7) dump =
  Result.map
    (drive ?obs ?trace ?health ~config ~name:"mrt")
    (mrt_world ?total_bps ?zipf_s ~seed dump)
