module Bgp = Ef_bgp
module Snapshot = Ef_collector.Snapshot
module Obs = Ef_obs
module Trace = Ef_trace.Recorder

type degradation =
  | Stale_snapshot of { age_s : int; limit_s : int }
  | Low_confidence of { observed_bps : float; expected_bps : float }

let degradation_reason = function
  | Stale_snapshot _ -> "stale_snapshot"
  | Low_confidence _ -> "low_confidence"

let pp_degradation fmt = function
  | Stale_snapshot { age_s; limit_s } ->
      Format.fprintf fmt "stale snapshot (age %ds > limit %ds)" age_s limit_s
  | Low_confidence { observed_bps; expected_bps } ->
      Format.fprintf fmt "low confidence (%.3g bps vs %.3g expected)"
        observed_bps expected_bps

type cycle_stats = {
  time_s : int;
  total_bps : float;
  detoured_bps : float;
  preferred : Projection.t;
  enforced : Projection.t;
  allocator : Allocator.result;
  reconcile : Hysteresis.step_result;
  guard_dropped : Override.t list;
  guard_violations : Guard.violation list;
  overloaded_before : (Ef_netsim.Iface.t * float) list;
  overloaded_after : (Ef_netsim.Iface.t * float) list;
  degraded : degradation option;
}

let log_src = Logs.Src.create "edge_fabric.controller" ~doc:"Edge Fabric controller"

module Log = (val Logs.src_log log_src)

(* metric handles, resolved once per controller so a cycle touches only
   mutable cells and the monotonic clock *)
type obs_handles = {
  reg : Obs.Registry.t;
  sp_cycle : Obs.Histogram.t;
  sp_allocate : Obs.Histogram.t;
  sp_guard_clamp : Obs.Histogram.t;
  sp_reconcile : Obs.Histogram.t;
  sp_project : Obs.Histogram.t;
  sp_guard_audit : Obs.Histogram.t;
  h_redecided : Obs.Histogram.t;
  h_moves : Obs.Histogram.t;
  c_cycles : Obs.Counter.t;
  c_added : Obs.Counter.t;
  c_removed : Obs.Counter.t;
  c_retargeted : Obs.Counter.t;
  c_shed : Obs.Counter.t;
  c_violations : Obs.Counter.t;
  c_residual : Obs.Counter.t;
  c_degraded : Obs.Counter.t;
  c_degraded_stale : Obs.Counter.t;
  c_degraded_lowconf : Obs.Counter.t;
  c_iface_patches : Obs.Counter.t;
  g_total_bps : Obs.Gauge.t;
  g_detoured_bps : Obs.Gauge.t;
  g_active : Obs.Gauge.t;
  g_snapshot_age : Obs.Gauge.t;
  h_gc_minor : Obs.Histogram.t;
  h_gc_major : Obs.Histogram.t;
  h_gc_promoted : Obs.Histogram.t;
  c_gc_compactions : Obs.Counter.t;
}

let obs_handles reg =
  {
    reg;
    sp_cycle = Obs.Registry.span reg "controller.cycle";
    sp_allocate = Obs.Registry.span reg "controller.allocate";
    sp_guard_clamp = Obs.Registry.span reg "controller.guard.clamp";
    sp_reconcile = Obs.Registry.span reg "controller.reconcile";
    sp_project = Obs.Registry.span reg "controller.project";
    sp_guard_audit = Obs.Registry.span reg "controller.guard.audit";
    h_redecided = Obs.Registry.histogram reg "controller.project.redecided";
    h_moves = Obs.Registry.histogram reg "allocator.moves_considered";
    c_cycles = Obs.Registry.counter reg "controller.cycles";
    c_added = Obs.Registry.counter reg "controller.overrides.added";
    c_removed = Obs.Registry.counter reg "controller.overrides.removed";
    c_retargeted = Obs.Registry.counter reg "controller.overrides.retargeted";
    c_shed = Obs.Registry.counter reg "controller.overrides.shed";
    c_violations = Obs.Registry.counter reg "controller.guard.violations";
    c_residual = Obs.Registry.counter reg "controller.residual_overloads";
    c_degraded = Obs.Registry.counter reg "controller.degraded.cycles";
    c_degraded_stale = Obs.Registry.counter reg "controller.degraded.stale";
    c_degraded_lowconf = Obs.Registry.counter reg "controller.degraded.low_confidence";
    c_iface_patches =
      Obs.Registry.counter reg "controller.incremental.iface_patches";
    g_total_bps = Obs.Registry.gauge reg "controller.total_bps";
    g_detoured_bps = Obs.Registry.gauge reg "controller.detoured_bps";
    g_active = Obs.Registry.gauge reg "controller.overrides.active";
    g_snapshot_age = Obs.Registry.gauge reg "controller.snapshot.age_s";
    h_gc_minor = Obs.Registry.histogram reg "controller.gc.minor_words";
    h_gc_major = Obs.Registry.histogram reg "controller.gc.major_words";
    h_gc_promoted = Obs.Registry.histogram reg "controller.gc.promoted_words";
    c_gc_compactions = Obs.Registry.counter reg "controller.gc.compactions";
  }

type t = {
  name : string;
  config : Config.t;
  hysteresis : Hysteresis.t;
  obs : obs_handles;
  trace : Trace.t;
  mutable cycles : int;
  (* input-confidence tracking: EWMA of total snapshot rate over healthy
     cycles only, so a feed blackout does not drag the baseline down *)
  mutable rate_ewma : float;
  mutable healthy_cycles : int;
  (* incremental state — advisory: any cycle may drop it (degraded
     inputs, unlinked snapshot) and fall back to the stateless cold path
     with identical results. Interface-set changes ride the warm path:
     a linked delta records them and the allocator patches the image. *)
  mutable alloc_warm : Allocator.warm option;
  mutable incr_hits : int;
}

let create ?(config = Config.default) ?obs ?(trace = Trace.noop) ~name () =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Controller.create: bad config: " ^ msg));
  let reg = match obs with Some r -> r | None -> Obs.Registry.default () in
  {
    name;
    config;
    hysteresis = Hysteresis.create config;
    obs = obs_handles reg;
    trace;
    cycles = 0;
    rate_ewma = 0.0;
    healthy_cycles = 0;
    alloc_warm = None;
    incr_hits = 0;
  }

let name t = t.name
let config t = t.config
let active_overrides t = Hysteresis.active t.hysteresis
let cycles_run t = t.cycles
let incremental_hits t = t.incr_hits
let obs t = t.obs.reg
let trace t = t.trace

let override_ages t ~now_s = Hysteresis.ages t.hysteresis ~now_s

(* why the controller refuses to recompute this cycle, if it does *)
let detect_degradation t ~now_s snapshot =
  let age_s = now_s - Snapshot.time_s snapshot in
  if age_s > t.config.Config.max_snapshot_age_s then
    Some (Stale_snapshot { age_s; limit_s = t.config.Config.max_snapshot_age_s })
  else if
    t.config.Config.min_rate_confidence > 0.0
    && t.healthy_cycles >= 3
    && t.rate_ewma > 0.0
    && Snapshot.total_rate_bps snapshot
       < t.config.Config.min_rate_confidence *. t.rate_ewma
  then
    Some
      (Low_confidence
         {
           observed_bps = Snapshot.total_rate_bps snapshot;
           expected_bps = t.rate_ewma;
         })
  else None

(* Trace tail shared by normal and degraded cycles: the per-interface load
   table (projected = BGP-preferred, enforced = with the active override
   set) and every enforced override with the BGP attributes that realize
   it — then commit the cycle record. *)
let record_trace_tail t snapshot ~preferred ~enforced ~active =
  if Trace.enabled t.trace then begin
    let rows =
      List.map
        (fun iface ->
          let id = Ef_netsim.Iface.id iface in
          {
            Trace.if_id = id;
            if_name = Ef_netsim.Iface.name iface;
            if_capacity_bps = Ef_netsim.Iface.capacity_bps iface;
            if_projected_bps = Projection.load_bps preferred ~iface_id:id;
            if_enforced_bps = Projection.load_bps enforced ~iface_id:id;
            if_actual_bps = None;
          })
        (Snapshot.ifaces snapshot)
    in
    Trace.record_ifaces t.trace rows;
    let now = Snapshot.time_s snapshot in
    List.iter
      (fun (o : Override.t) ->
        let installed =
          Option.value
            (Hysteresis.installed_at t.hysteresis o.Override.prefix)
            ~default:now
        in
        let target_attrs = Bgp.Route.attrs o.Override.target in
        Trace.record_enforced t.trace
          {
            Trace.en_prefix = o.Override.prefix;
            en_from_iface = o.Override.from_iface;
            en_to_iface = o.Override.to_iface;
            en_peer_id = Override.target_peer_id o;
            en_level = o.Override.preference_level;
            en_rate_bps = o.Override.rate_bps;
            en_age_s = now - installed;
            en_local_pref = Config.override_local_pref;
            en_communities =
              List.map Bgp.Community.to_string
                (Override.override_community
                :: target_attrs.Bgp.Attrs.communities);
          })
      active
  end;
  Trace.end_cycle t.trace

(* Fail static: keep the last-good override set enforced, touch nothing.
   The hysteresis state is left unstepped, so installation times and the
   release damping pick up exactly where they were once inputs recover. *)
let degraded_cycle t snapshot ~reason =
  let ob = t.obs in
  (* fail static all the way: degraded inputs invalidate the incremental
     cache too — the next healthy cycle re-enters cold and re-seeds it *)
  t.alloc_warm <- None;
  let active = Hysteresis.active t.hysteresis in
  let preferred = Projection.project snapshot in
  let enforced =
    Projection.project ~overrides:(Override.lookup active) snapshot
  in
  let threshold = t.config.Config.overload_threshold in
  Obs.Counter.inc ob.c_degraded;
  (match reason with
  | Stale_snapshot _ -> Obs.Counter.inc ob.c_degraded_stale
  | Low_confidence _ -> Obs.Counter.inc ob.c_degraded_lowconf);
  Trace.set_degraded t.trace (degradation_reason reason);
  record_trace_tail t snapshot ~preferred ~enforced ~active;
  Log.warn (fun m ->
      m "%s: degraded cycle, holding %d overrides: %a" t.name
        (List.length active) pp_degradation reason);
  if Obs.Registry.has_sinks ob.reg then
    Obs.Registry.emit ob.reg ~name:"controller.degraded"
      [
        ("controller", Obs.Json.String t.name);
        ("time_s", Obs.Json.Int (Snapshot.time_s snapshot));
        ("reason", Obs.Json.String (degradation_reason reason));
        ("overrides_held", Obs.Json.Int (List.length active));
      ];
  {
    time_s = Snapshot.time_s snapshot;
    total_bps = Projection.total_bps enforced;
    detoured_bps = Projection.overridden_bps enforced;
    preferred;
    enforced;
    allocator =
      {
        Allocator.overrides = [];
        before = preferred;
        final = enforced;
        residual = [];
        moves_considered = 0;
        splits = 0;
        split_keys = [];
      };
    reconcile =
      {
        Hysteresis.active;
        added = [];
        removed = [];
        retargeted = [];
        kept = active;
        held = [];
        deferred_releases = 0;
      };
    guard_dropped = [];
    guard_violations = [];
    overloaded_before = Projection.overloaded preferred ~threshold;
    overloaded_after = Projection.overloaded enforced ~threshold;
    degraded = Some reason;
  }

(* Per-cycle allocation/GC attribution: deltas across the cycle body land
   in the gc histograms, and — when a profiler is attached to the
   registry — as a counter track in the Chrome trace. [quick_stat]'s
   counters move only when a collection runs, so the minor delta comes
   from [Gc.minor_words], which also counts the live minor heap. It is
   read last, so the [quick_stat] record falls outside the window. *)
let gc_start () =
  let gc0 = Gc.quick_stat () in
  (gc0, Gc.minor_words ())

let record_gc ob ((gc0 : Gc.stat), minor0) =
  let minor = Gc.minor_words () -. minor0 in
  let gc1 = Gc.quick_stat () in
  let major = gc1.Gc.major_words -. gc0.Gc.major_words in
  let promoted = gc1.Gc.promoted_words -. gc0.Gc.promoted_words in
  let compactions = gc1.Gc.compactions - gc0.Gc.compactions in
  Obs.Histogram.observe ob.h_gc_minor minor;
  Obs.Histogram.observe ob.h_gc_major major;
  Obs.Histogram.observe ob.h_gc_promoted promoted;
  if compactions > 0 then
    Obs.Counter.add ob.c_gc_compactions (float_of_int compactions);
  match Obs.Registry.profile_hook ob.reg with
  | None -> ()
  | Some hook ->
      hook.Obs.Registry.on_counter "gc"
        [
          ("minor_words", minor);
          ("major_words", major);
          ("promoted_words", promoted);
          ("compactions", float_of_int compactions);
        ]

let cycle ?now_s t snapshot =
  let ob = t.obs in
  Obs.Span.time_h ob.reg ob.sp_cycle @@ fun () ->
  let gc0 = gc_start () in
  t.cycles <- t.cycles + 1;
  Trace.begin_cycle t.trace ~index:t.cycles ~time_s:(Snapshot.time_s snapshot);
  Obs.Counter.inc ob.c_cycles;
  let now_s = Option.value now_s ~default:(Snapshot.time_s snapshot) in
  Obs.Gauge.set ob.g_snapshot_age
    (float_of_int (now_s - Snapshot.time_s snapshot));
  match detect_degradation t ~now_s snapshot with
  | Some reason ->
      let stats = degraded_cycle t snapshot ~reason in
      record_gc ob gc0;
      stats
  | None ->
  let total = Snapshot.total_rate_bps snapshot in
  t.rate_ewma <-
    (if t.healthy_cycles = 0 then total
     else (0.7 *. t.rate_ewma) +. (0.3 *. total));
  t.healthy_cycles <- t.healthy_cycles + 1;
  let alloc, warm =
    Obs.Span.time_h ob.reg ob.sp_allocate (fun () ->
        (match t.alloc_warm with
        | Some w when Allocator.warm_valid ~warm:w snapshot ->
            t.incr_hits <- t.incr_hits + 1;
            (* flap visibility: count warm cycles that also crossed an
               interface-set change — linked diffs are O(1), so this is
               a lookup of the recorded delta, not a recomputation *)
            if
              (Snapshot.diff (Allocator.warm_snapshot w) snapshot)
                .Snapshot.iface_changes
              <> []
            then Obs.Counter.inc ob.c_iface_patches
        | Some _ | None -> ());
        Allocator.run_warm ~obs:ob.reg ~config:t.config ~trace:t.trace
          ?warm:t.alloc_warm snapshot)
  in
  t.alloc_warm <- Some warm;
  let desired, guard_dropped =
    Obs.Span.time_h ob.reg ob.sp_guard_clamp (fun () ->
        Guard.clamp ~trace:t.trace t.config.Config.guard snapshot
          alloc.Allocator.overrides)
  in
  if guard_dropped <> [] then
    Log.warn (fun m ->
        m "%s: guard dropped %d of %d proposed overrides" t.name
          (List.length guard_dropped)
          (List.length alloc.Allocator.overrides));
  let reconcile =
    Obs.Span.time_h ob.reg ob.sp_reconcile (fun () ->
        Hysteresis.step ~trace:t.trace t.hysteresis
          ~time_s:(Snapshot.time_s snapshot) ~desired
          ~preferred:alloc.Allocator.before)
  in
  let enforced, redecided =
    Obs.Span.time_h ob.reg ob.sp_project (fun () ->
        (* The enforced projection is the allocator's final image with
           only the prefixes where the two can differ re-decided under the
           active set: the overrides hysteresis holds against [desired],
           the guard's drops, and the /24 split keys. Every other active
           override equals (prefix, target peer) a move the final image
           already carries, and every other moved prefix is active — so
           the result is byte-identical to a cold [project ~overrides] in
           O(changes), never O(overrides) or O(table) (DESIGN.md §13). *)
        let keys =
          List.map
            (fun (o : Override.t) -> o.Override.prefix)
            (reconcile.Hysteresis.held @ guard_dropped)
          @ alloc.Allocator.split_keys
        in
        ( Projection.redecide alloc.Allocator.final snapshot
            ~overrides:(Hysteresis.lookup t.hysteresis) keys,
          List.length keys ))
  in
  Obs.Histogram.observe ob.h_redecided (float_of_int redecided);
  Obs.Histogram.observe ob.h_moves
    (float_of_int alloc.Allocator.moves_considered);
  let threshold = t.config.Config.overload_threshold in
  let guard_violations =
    Obs.Span.time_h ob.reg ob.sp_guard_audit (fun () ->
        Guard.audit ~enforced t.config.Config.guard snapshot
          reconcile.Hysteresis.active)
  in
  List.iter
    (fun v -> Log.warn (fun m -> m "%s: %a" t.name Guard.pp_violation v))
    guard_violations;
  let stats =
    {
      time_s = Snapshot.time_s snapshot;
      total_bps = Projection.total_bps enforced;
      detoured_bps = Projection.overridden_bps enforced;
      preferred = alloc.Allocator.before;
      enforced;
      allocator = alloc;
      reconcile;
      guard_dropped;
      guard_violations;
      overloaded_before = Projection.overloaded alloc.Allocator.before ~threshold;
      overloaded_after = Projection.overloaded enforced ~threshold;
      degraded = None;
    }
  in
  record_trace_tail t snapshot ~preferred:alloc.Allocator.before ~enforced
    ~active:reconcile.Hysteresis.active;
  let count l = float_of_int (List.length l) in
  Obs.Counter.add ob.c_added (count reconcile.Hysteresis.added);
  Obs.Counter.add ob.c_removed (count reconcile.Hysteresis.removed);
  Obs.Counter.add ob.c_retargeted (count reconcile.Hysteresis.retargeted);
  Obs.Counter.add ob.c_shed (count guard_dropped);
  Obs.Counter.add ob.c_violations (count guard_violations);
  Obs.Counter.add ob.c_residual (count alloc.Allocator.residual);
  Obs.Gauge.set ob.g_total_bps stats.total_bps;
  Obs.Gauge.set ob.g_detoured_bps stats.detoured_bps;
  Obs.Gauge.set ob.g_active (count reconcile.Hysteresis.active);
  if Obs.Registry.has_sinks ob.reg then
    Obs.Registry.emit ob.reg ~name:"controller.cycle"
      [
        ("controller", Obs.Json.String t.name);
        ("time_s", Obs.Json.Int stats.time_s);
        ("total_bps", Obs.Json.Float stats.total_bps);
        ("detoured_bps", Obs.Json.Float stats.detoured_bps);
        ("overrides_active", Obs.Json.Int (List.length reconcile.Hysteresis.active));
        ("added", Obs.Json.Int (List.length reconcile.Hysteresis.added));
        ("removed", Obs.Json.Int (List.length reconcile.Hysteresis.removed));
        ("retargeted", Obs.Json.Int (List.length reconcile.Hysteresis.retargeted));
        ("shed", Obs.Json.Int (List.length guard_dropped));
        ("residual", Obs.Json.Int (List.length alloc.Allocator.residual));
        ("violations", Obs.Json.Int (List.length guard_violations));
        ("overloaded_before", Obs.Json.Int (List.length stats.overloaded_before));
        ("overloaded_after", Obs.Json.Int (List.length stats.overloaded_after));
      ];
  record_gc ob gc0;
  stats

let bgp_updates stats =
  let withdrawals =
    List.map
      (fun (o, _age) -> Override.to_withdrawal o)
      stats.reconcile.Hysteresis.removed
  in
  let announcements =
    List.map
      (fun o ->
        Override.to_announcement o ~local_pref:Config.override_local_pref)
      (stats.reconcile.Hysteresis.added @ stats.reconcile.Hysteresis.retargeted)
  in
  withdrawals @ announcements

let detour_fraction stats =
  if stats.total_bps <= 0.0 then 0.0 else stats.detoured_bps /. stats.total_bps

(* --- cycle_stats accessors --------------------------------------------- *)

let time_s stats = stats.time_s
let total_bps stats = stats.total_bps
let detoured_bps stats = stats.detoured_bps
let preferred stats = stats.preferred
let enforced stats = stats.enforced
let allocator_result stats = stats.allocator
let guard_dropped stats = stats.guard_dropped
let guard_violations stats = stats.guard_violations
let overloaded_before stats = stats.overloaded_before
let overloaded_after stats = stats.overloaded_after
let overrides_enforced stats = stats.reconcile.Hysteresis.active
let overrides_added stats = stats.reconcile.Hysteresis.added
let overrides_removed stats = stats.reconcile.Hysteresis.removed
let overrides_retargeted stats = stats.reconcile.Hysteresis.retargeted
let overrides_held stats = stats.reconcile.Hysteresis.held
let residual_overloads stats = stats.allocator.Allocator.residual
let degraded stats = stats.degraded

let pp_cycle_stats fmt stats =
  (match stats.degraded with
  | Some reason -> Format.fprintf fmt "DEGRADED(%a) " pp_degradation reason
  | None -> ());
  Format.fprintf fmt
    "t=%d total=%.3gbps detoured=%.3gbps (%.1f%%) overrides=%d (+%d/-%d/~%d) \
     shed=%d residual=%d violations=%d overloaded %d->%d"
    stats.time_s stats.total_bps stats.detoured_bps
    (100.0 *. detour_fraction stats)
    (List.length stats.reconcile.Hysteresis.active)
    (List.length stats.reconcile.Hysteresis.added)
    (List.length stats.reconcile.Hysteresis.removed)
    (List.length stats.reconcile.Hysteresis.retargeted)
    (List.length stats.guard_dropped)
    (List.length stats.allocator.Allocator.residual)
    (List.length stats.guard_violations)
    (List.length stats.overloaded_before)
    (List.length stats.overloaded_after)

let cycle_stats_to_json stats =
  Obs.Json.Obj
    [
      ("time_s", Obs.Json.Int stats.time_s);
      ("total_bps", Obs.Json.Float stats.total_bps);
      ("detoured_bps", Obs.Json.Float stats.detoured_bps);
      ("detour_fraction", Obs.Json.Float (detour_fraction stats));
      ( "overrides",
        Obs.Json.Obj
          [
            ("active", Obs.Json.Int (List.length stats.reconcile.Hysteresis.active));
            ("added", Obs.Json.Int (List.length stats.reconcile.Hysteresis.added));
            ("removed", Obs.Json.Int (List.length stats.reconcile.Hysteresis.removed));
            ( "retargeted",
              Obs.Json.Int (List.length stats.reconcile.Hysteresis.retargeted) );
            ("shed", Obs.Json.Int (List.length stats.guard_dropped));
            ( "deferred_releases",
              Obs.Json.Int stats.reconcile.Hysteresis.deferred_releases );
          ] );
      ("residual_overloads", Obs.Json.Int (List.length stats.allocator.Allocator.residual));
      ("guard_violations", Obs.Json.Int (List.length stats.guard_violations));
      ("overloaded_before", Obs.Json.Int (List.length stats.overloaded_before));
      ("overloaded_after", Obs.Json.Int (List.length stats.overloaded_after));
      ( "degraded",
        match stats.degraded with
        | None -> Obs.Json.Null
        | Some reason -> Obs.Json.String (degradation_reason reason) );
    ]
