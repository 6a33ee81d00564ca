module Scenario = Ef_netsim.Scenario
module Obs = Ef_obs

type t = {
  engines : (string * Engine.t) list;
  regs : (string * Obs.Registry.t) list; (* same order as [engines] *)
  fleet_obs : Obs.Registry.t;
  profiler : Ef_health.Profiler.t;
  (* journal buffers, attached lazily on the first run that has sinks *)
  mutable buffers : (unit -> Obs.Event.t list) list option;
}

let create ?(config = Engine.default_config) ?obs
    ?(profiler = Ef_health.Profiler.noop) scenarios =
  let fleet_obs =
    match obs with Some r -> r | None -> Obs.Registry.default ()
  in
  (* Every engine owns a private registry: engines may run on separate
     domains, and the shared registry is unsynchronized mutable state.
     After a run the per-PoP registries are folded into [fleet_obs]. An
     enabled profiler taps every per-engine registry (its event buffer is
     mutex-guarded, so cross-domain recording is safe) plus the fleet
     registry itself for the post-barrier merge span. *)
  let members =
    List.map
      (fun s ->
        let reg = Obs.Registry.create () in
        Ef_health.Profiler.attach profiler reg;
        (s.Scenario.scenario_name, Engine.create ~config ~obs:reg s, reg))
      scenarios
  in
  Ef_health.Profiler.attach profiler fleet_obs;
  {
    engines = List.map (fun (name, engine, _) -> (name, engine)) members;
    regs = List.map (fun (name, _, reg) -> (name, reg)) members;
    fleet_obs;
    profiler;
    buffers = None;
  }

let of_paper_pops ?config ?obs ?profiler () =
  create ?config ?obs ?profiler Scenario.paper_pops

let engines t = t.engines
let registries t = t.regs
let registry t = t.fleet_obs

let run ?(jobs = 1) t =
  (* When the fleet registry journals somewhere, buffer each engine's
     events privately during the run and replay them into the fleet sinks
     in engine order after the barrier — the journal is then independent
     of scheduling, and of [jobs]. *)
  (if t.buffers = None && Obs.Registry.has_sinks t.fleet_obs then
     t.buffers <-
       Some
         (List.map
            (fun (_, reg) ->
              let sink, events = Obs.Registry.memory_sink () in
              Obs.Registry.add_sink reg sink;
              events)
            t.regs));
  let work ((name, engine), (_, reg)) =
    let metrics =
      Obs.Span.time ~registry:reg "fleet.pop_run" (fun () ->
          Engine.run engine)
    in
    Obs.Counter.inc (Obs.Registry.counter reg "fleet.pops_run");
    (name, metrics)
  in
  (* per-lane attribution, parallel runs only: each task runs inside a
     profiler span tagged with its executing lane, so the trace shows
     which domain ran which PoP and how busy each lane was *)
  let wrap =
    if jobs = 1 then None
    else
      Some
        (fun ~lane task ->
          Ef_health.Profiler.span ~lane t.profiler ~name:"pool.task" task)
  in
  let results =
    Ef_util.Pool.map ?wrap ~jobs work (List.combine t.engines t.regs)
  in
  (* after the barrier: deterministic fold of the per-PoP telemetry into
     the fleet view, in engine order, so it is independent of [jobs] *)
  Ef_health.Profiler.span t.profiler ~name:"fleet.merge" (fun () ->
      List.iter
        (fun (_, reg) -> Obs.Registry.merge ~into:t.fleet_obs reg)
        t.regs);
  (match t.buffers with
  | None -> ()
  | Some buffers ->
      List.iter
        (fun events -> Obs.Registry.dispatch_all t.fleet_obs (events ()))
        buffers);
  (* lane busy-time summary lands in the fleet registry as gauges, so the
     multicore cost attribution survives into --metrics/--prom-out *)
  List.iter
    (fun (lane, busy_s) ->
      Obs.Gauge.set
        (Obs.Registry.gauge t.fleet_obs (Printf.sprintf "pool.lane%d.busy_s" lane))
        busy_s)
    (Ef_health.Profiler.lane_busy_s t.profiler);
  results

let overloaded_count metrics mode =
  List.length
    (List.filter (fun (_, u) -> u > 1.0) (Metrics.peak_utilization metrics mode))

type summary = {
  pops : int;
  offered_peak_bps : float;
  mean_detour_fraction : float;
  overloaded_ifaces : int;
  overloaded_ifaces_bgp_only : int;
  total_overrides_installed : int;
}

let peak_offered metrics =
  List.fold_left
    (fun acc row -> Float.max acc row.Metrics.offered_bps)
    0.0 (Metrics.rows metrics)

let mean_offered metrics =
  match Metrics.rows metrics with
  | [] -> 0.0
  | rows ->
      List.fold_left (fun acc r -> acc +. r.Metrics.offered_bps) 0.0 rows
      /. float_of_int (List.length rows)

let installed metrics =
  List.fold_left
    (fun acc r -> acc + r.Metrics.overrides_added)
    0 (Metrics.rows metrics)

let summarize results =
  let total_mean_offered =
    List.fold_left (fun acc (_, m) -> acc +. mean_offered m) 0.0 results
  in
  {
    pops = List.length results;
    offered_peak_bps =
      List.fold_left (fun acc (_, m) -> acc +. peak_offered m) 0.0 results;
    mean_detour_fraction =
      (if total_mean_offered <= 0.0 then 0.0
       else
         List.fold_left
           (fun acc (_, m) ->
             acc +. (Metrics.mean_detour_fraction m *. mean_offered m))
           0.0 results
         /. total_mean_offered);
    overloaded_ifaces =
      List.fold_left (fun acc (_, m) -> acc + overloaded_count m `Actual) 0 results;
    overloaded_ifaces_bgp_only =
      List.fold_left
        (fun acc (_, m) -> acc + overloaded_count m `Preferred)
        0 results;
    total_overrides_installed =
      List.fold_left (fun acc (_, m) -> acc + installed m) 0 results;
  }

let summary_table results =
  let table =
    Ef_stats.Table.create
      [
        "pop";
        "peak offered";
        "mean detoured";
        "ifaces>100%";
        "ifaces>100% (BGP-only)";
        "overrides installed";
      ]
  in
  List.iter
    (fun (name, m) ->
      Ef_stats.Table.add_row table
        [
          name;
          Ef_util.Units.rate_to_string (peak_offered m);
          Format.asprintf "%a" Ef_util.Units.pp_percent
            (Metrics.mean_detour_fraction m);
          string_of_int (overloaded_count m `Actual);
          string_of_int (overloaded_count m `Preferred);
          string_of_int (installed m);
        ])
    results;
  let s = summarize results in
  Ef_stats.Table.add_row table
    [
      "FLEET";
      Ef_util.Units.rate_to_string s.offered_peak_bps;
      Format.asprintf "%a" Ef_util.Units.pp_percent s.mean_detour_fraction;
      string_of_int s.overloaded_ifaces;
      string_of_int s.overloaded_ifaces_bgp_only;
      string_of_int s.total_overrides_installed;
    ];
  table
