(* efctl: the Edge Fabric command-line driver.

   Subcommands:
     scenarios              list the built-in worlds
     world       -s NAME    describe a generated world
     cycle       -s NAME    run one controller cycle at a chosen hour and
                            show its decisions (and the BGP updates)
     run         -s NAME    simulate hours of a day, print the outcome
     explain     PREFIX     simulate, then reconstruct why the pipeline
                            placed one prefix where it did
     top         -s NAME    live terminal view of interfaces + overrides
     experiment  ID         regenerate one paper table/figure            *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
module Ef = Edge_fabric
module S = Ef_sim
open Cmdliner

(* --- shared args ------------------------------------------------------ *)

let scenario_arg =
  let parse name =
    match N.Scenario.find name with
    | Some s -> Ok s
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown scenario %S (known: %s)" name
                (String.concat ", " (N.Scenario.names ()))))
  in
  let print fmt s = Format.pp_print_string fmt s.N.Scenario.scenario_name in
  Arg.conv (parse, print)

let scenario_t =
  Arg.(
    value
    & opt scenario_arg N.Scenario.pop_a
    & info [ "s"; "scenario" ] ~docv:"NAME" ~doc:"World to use (see $(b,scenarios)).")

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.")

(* --hours / --cycle for every command that simulates a window: a
   negative window or a zero period is a usage error (exit 124), not a
   Division_by_zero deep inside the run; explain's --ring likewise *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* --slo-deadline for run and health: a budget of zero or less would count
   every cycle as an overrun, and NaN none at all *)
let slo_deadline_t ~doc =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0.0 -> Ok f
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "expected a positive finite number, got %S" s))
  in
  let positive = Arg.conv (parse, Arg.conv_printer Arg.float) in
  Arg.(value & opt positive 1.0 & info [ "slo-deadline" ] ~docv:"SEC" ~doc)

let hours_t ?(doc = "Simulated duration.") default =
  Arg.(value & opt (int_at_least 0) default & info [ "hours" ] ~docv:"H" ~doc)

let cycle_t ?(doc = "Controller period.") default =
  Arg.(value & opt (int_at_least 1) default & info [ "cycle" ] ~docv:"SEC" ~doc)

(* --jobs for fleet and experiment: the lane counts Pool.map accepts.
   Anything else is a usage error (exit 124), rejected before a domain
   is spawned. *)
let jobs_t ~doc =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= 128 -> Ok n
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "expected an integer in [1, 128], got %S" s))
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_int)) 1
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let hour_t =
  Arg.(
    value
    & opt int 20
    & info [ "at" ] ~docv:"HOUR" ~doc:"UTC hour of day for the snapshot (0-23).")

(* --- export sinks ------------------------------------------------------ *)

(* Every exporting flag (--metrics, --journal, --prom-out, --trace-out,
   --alerts-out, --profile-out) resolves its FILE argument the same way:
   "-" is stdout (flushed, never closed), anything else is opened for
   writing and closed even when the writer raises. *)
let open_sink ~flag = function
  | "-" -> (stdout, fun () -> flush stdout)
  | path -> (
      match open_out path with
      | oc -> (oc, fun () -> close_out oc)
      | exception Sys_error msg ->
          Printf.eprintf "efctl: %s %s: %s\n" flag path msg;
          exit 1)

let write_sink ~flag path write =
  let oc, finish = open_sink ~flag path in
  Fun.protect ~finally:finish (fun () -> write oc)

(* every command that runs the pipeline reports into the default Ef_obs
   registry; --metrics dumps it (JSON or OpenMetrics) when the command is
   done *)
let metrics_t =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write collected telemetry (spans, counters, gauges) on exit, in \
           the $(b,--metrics-format) format, to $(docv) (default $(b,-), \
           stdout).")

let metrics_format_t =
  let fmt = Arg.enum [ ("json", `Json); ("prom", `Prom) ] in
  Arg.(
    value & opt fmt `Json
    & info [ "metrics-format" ] ~docv:"FMT"
        ~doc:
          "Telemetry export format: $(b,json) (the registry tree) or \
           $(b,prom) (OpenMetrics text, including trace-derived series \
           when tracing is on).")

let render_metrics ~format ~trace ~health () =
  let reg = Ef_obs.Registry.default () in
  match format with
  | `Json -> Ef_obs.Json.to_string (Ef_obs.Registry.to_json reg) ^ "\n"
  | `Prom ->
      Ef_obs.Prom.of_registry
        ~extra:
          (Ef_trace.Export.prom_families trace
          @ Ef_health.Tracker.prom_families health)
        reg

let print_metrics ?(format = `Json) ?(trace = Ef_trace.Recorder.noop)
    ?(health = Ef_health.Tracker.noop) = function
  | None -> ()
  | Some path ->
      write_sink ~flag:"--metrics" path (fun oc ->
          output_string oc (render_metrics ~format ~trace ~health ()))

(* --faults NAME|FILE resolution, shared by run / explain / top *)
let resolve_fault_plan = function
  | None -> None
  | Some name_or_file -> (
      match N.Scenario.find_fault_plan name_or_file with
      | Some plan -> Some plan
      | None -> (
          match Ef_fault.Plan.load name_or_file with
          | Ok plan -> Some plan
          | Error msg ->
              Printf.eprintf
                "efctl: --faults %s: not a canned plan (%s) and not a \
                 readable plan file: %s\n"
                name_or_file
                (String.concat ", " (N.Scenario.fault_plan_names ()))
                msg;
              exit 1))

let faults_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"NAME|FILE"
        ~doc:
          "Inject a deterministic fault plan: a canned plan name (see \
           $(b,scenarios)) or a JSON plan file.")

(* --policy NAME|FILE resolution: canned program, else JSON file *)
let resolve_policy = function
  | None -> None
  | Some name_or_file -> (
      match N.Scenario.find_policy name_or_file with
      | Some prog -> Some prog
      | None -> (
          match Ef_policy.Codec.load name_or_file with
          | Ok prog -> Some prog
          | Error msg ->
              Printf.eprintf
                "efctl: --policy %s: not a canned program (%s) and not a \
                 readable policy file: %s\n"
                name_or_file
                (String.concat ", " (N.Scenario.policy_names ()))
                msg;
              exit 1))

let policy_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "policy" ] ~docv:"NAME|FILE"
        ~doc:
          "Run under an $(b,Ef_policy) program: a canned program name (see \
           $(b,scenarios)) or a policy JSON file. Replaces the scenario's \
           import policy and applies the program's allocator/perf knobs. \
           Not on dfz or $(b,--mrt) worlds.")

(* --- scenarios --------------------------------------------------------- *)

let scenarios_cmd =
  let run () =
    List.iter
      (fun s ->
        Printf.printf "%-10s %s\n" s.N.Scenario.scenario_name
          s.N.Scenario.description)
      N.Scenario.all;
    Printf.printf
      "\ndfz worlds (for run -s; support --verify-incremental):\n";
    List.iter
      (fun (name, cfg) ->
        Printf.printf "%-10s %d prefixes, %.1f%% churn/cycle\n" name
          cfg.N.Dfz.n_prefixes
          (100.0 *. cfg.N.Dfz.churn_fraction))
      N.Scenario.dfz_scenarios;
    Printf.printf "\ncanned fault plans (for run --faults):\n";
    List.iter
      (fun (name, plan) ->
        Printf.printf "%-14s %d fault(s), seed %d\n" name
          (List.length plan.Ef_fault.Plan.faults)
          plan.Ef_fault.Plan.plan_seed)
      N.Scenario.fault_plans;
    Printf.printf "\ncanned policy programs (for run --policy):\n";
    List.iter
      (fun (name, prog) ->
        Printf.printf "%-18s default %s\n" name
          (match prog.Ef_policy.program_default with
          | Ef_policy.Accept -> "accept"
          | Ef_policy.Reject -> "reject"))
      N.Scenario.policies
  in
  Cmd.v (Cmd.info "scenarios" ~doc:"List the built-in worlds.")
    Term.(const run $ const ())

(* --- world ------------------------------------------------------------- *)

let world_cmd =
  let run scenario =
    let world = N.Topo_gen.generate scenario.N.Scenario.topo in
    let pop = world.N.Topo_gen.pop in
    Format.printf "%a@." N.Pop.pp pop;
    Printf.printf "ASes: %d   prefixes: %d   routes: %d\n"
      (List.length world.N.Topo_gen.ases)
      (List.length world.N.Topo_gen.all_prefixes)
      (Bgp.Rib.route_count (N.Pop.rib pop));
    let table =
      Ef_stats.Table.create [ "interface"; "capacity"; "peers"; "kind(s)" ]
    in
    List.iter
      (fun iface ->
        let peers = N.Pop.peers_on_iface pop ~iface_id:(N.Iface.id iface) in
        let kinds =
          List.sort_uniq compare
            (List.map (fun p -> Bgp.Peer.kind_to_string (Bgp.Peer.kind p)) peers)
        in
        Ef_stats.Table.add_row table
          [
            N.Iface.name iface;
            Ef_util.Units.rate_to_string (N.Iface.capacity_bps iface);
            string_of_int (List.length peers);
            String.concat "," kinds;
          ])
      (N.Pop.interfaces pop);
    Ef_stats.Table.print table
  in
  Cmd.v (Cmd.info "world" ~doc:"Describe a generated world.")
    Term.(const run $ scenario_t)

(* --- cycle -------------------------------------------------------------- *)

let cycle_cmd =
  let run scenario seed hour verbose metrics =
    let config =
      S.Engine.make_config ~start_s:(hour * 3600) ~controller_enabled:false
        ~use_sampling:false ~seed ()
    in
    let engine = S.Engine.create ~config scenario in
    ignore (S.Engine.step engine);
    let snapshot = S.Engine.snapshot_now engine in
    let ctrl = Ef.Controller.create ~name:scenario.N.Scenario.scenario_name () in
    let stats = Ef.Controller.cycle ctrl snapshot in
    Printf.printf "snapshot: %d prefixes, %s offered\n"
      (C.Snapshot.prefix_count snapshot)
      (Ef_util.Units.rate_to_string (C.Snapshot.total_rate_bps snapshot));
    Printf.printf "overloaded before: %d   after: %d\n"
      (List.length (Ef.Controller.overloaded_before stats))
      (List.length (Ef.Controller.overloaded_after stats));
    List.iter
      (fun (iface, util) ->
        Printf.printf "  %-16s %.2f -> %.2f\n" (N.Iface.name iface) util
          (Ef.Projection.utilization (Ef.Controller.enforced stats) iface))
      (Ef.Controller.overloaded_before stats);
    Printf.printf "overrides: %d (%s detoured, %s of traffic)\n"
      (List.length (Ef.Controller.overrides_enforced stats))
      (Ef_util.Units.rate_to_string (Ef.Controller.detoured_bps stats))
      (Format.asprintf "%a" Ef_util.Units.pp_percent
         (Ef.Controller.detour_fraction stats));
    if verbose then begin
      List.iter
        (fun o -> Format.printf "  %a@." Ef.Override.pp o)
        (Ef.Controller.overrides_enforced stats);
      print_endline "BGP updates:";
      List.iter
        (fun u -> Format.printf "  %a@." Bgp.Msg.pp (Bgp.Msg.Update u))
        (Ef.Controller.bgp_updates stats)
    end;
    print_metrics metrics
  in
  let verbose_t =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print each override and update.")
  in
  Cmd.v
    (Cmd.info "cycle" ~doc:"Run one controller cycle on a peak snapshot.")
    Term.(const run $ scenario_t $ seed_t $ hour_t $ verbose_t $ metrics_t)

(* --- run ----------------------------------------------------------------- *)

(* run's world argument also accepts the DFZ-class names (full-table
   worlds that bypass the engine and run through the sim's dfz driver). *)
type run_world =
  | Topo_world of N.Scenario.t
  | Dfz_world of string * N.Dfz.config

let run_world_arg =
  let parse name =
    match N.Scenario.find name with
    | Some s -> Ok (Topo_world s)
    | None -> (
        match N.Scenario.find_dfz name with
        | Some cfg -> Ok (Dfz_world (name, cfg))
        | None ->
            Error
              (`Msg
                 (Printf.sprintf "unknown scenario %S (known: %s)" name
                    (String.concat ", "
                       (N.Scenario.names () @ N.Scenario.dfz_names ())))))
  in
  let print fmt = function
    | Topo_world s -> Format.pp_print_string fmt s.N.Scenario.scenario_name
    | Dfz_world (name, _) -> Format.pp_print_string fmt name
  in
  Arg.conv (parse, print)

let run_world_t =
  Arg.(
    value
    & opt run_world_arg (Topo_world N.Scenario.pop_a)
    & info [ "s"; "scenario" ] ~docv:"NAME"
        ~doc:
          "World to use (see $(b,scenarios)); also accepts the DFZ-class \
           worlds $(b,dfz) and $(b,dfz-smoke).")

let print_dfz_report name report =
  Printf.printf "%s: %s\n" name
    (Format.asprintf "%a" S.Dfz_run.pp_report report);
  if report.S.Dfz_run.mismatches <> [] then begin
    List.iter
      (fun m -> Printf.eprintf "  mismatch: %s\n" m)
      report.S.Dfz_run.mismatches;
    Printf.eprintf
      "efctl: incremental and cold pipelines disagree (%d cycles verified)\n"
      report.S.Dfz_run.verified_cycles;
    exit 1
  end

let run_cmd =
  let run world seed hours cycle_s no_controller no_sampling obs_metrics
      metrics_format journal faults policy prom_out trace_out profile_out
      alerts alerts_out slo_deadline mrt verify_incremental =
    (* dfz and mrt worlds run Dfz_run's loop, which always runs the
       controller on sampled rates under the world's own policy: the
       engine-only flags would be silently ignored there *)
    let dfz_class =
      mrt <> None
      || match world with Dfz_world _ -> true | Topo_world _ -> false
    in
    let engine_only =
      List.filter_map
        (fun (flag, set) -> if set then Some flag else None)
        [
          ("--no-controller", no_controller);
          ("--no-sampling", no_sampling);
          ("--policy", policy <> None);
        ]
    in
    if dfz_class && engine_only <> [] then
      `Error
        ( true,
          Printf.sprintf "%s: not supported on dfz or --mrt worlds"
            (String.concat ", " engine_only) )
    else
    let fault_plan = resolve_fault_plan faults in
    let policy_prog = resolve_policy policy in
    (* tracing is paid for only when something will read it: a trace dump,
       or a prom export (whose ef_trace_* series come from the recorder) *)
    let trace =
      match (trace_out, prom_out) with
      | None, None -> Ef_trace.Recorder.noop
      | _ -> Ef_trace.Recorder.create ()
    in
    (* likewise the profiler: enabled only when a Chrome trace will be
       written, and attached to the default registry so every span the
       pipeline already times lands in the buffer *)
    let profiler =
      match profile_out with
      | None -> Ef_health.Profiler.noop
      | Some _ ->
          let p = Ef_health.Profiler.create () in
          Ef_health.Profiler.attach p (Ef_obs.Registry.default ());
          p
    in
    let health =
      if alerts || alerts_out <> None then
        Ef_health.Tracker.create
          ~slo:
            {
              Ef_health.Slo.default_config with
              Ef_health.Slo.deadline_s = slo_deadline;
            }
          ~obs:(Ef_obs.Registry.default ())
          ()
      else Ef_health.Tracker.noop
    in
    let config =
      S.Engine.make_config ~cycle_s ~duration_s:(hours * 3600)
        ~controller_enabled:(not no_controller)
        ~use_sampling:(not no_sampling) ~seed ?faults:fault_plan
        ?policy:policy_prog ()
    in
    (* the common export tail: every world class (engine, dfz, mrt) gets
       the same exporters, each through the shared sink helper *)
    let export_results () =
      (if alerts then Format.printf "%a@." Ef_health.Tracker.pp_summary health);
      (match alerts_out with
      | None -> ()
      | Some path ->
          write_sink ~flag:"--alerts-out" path (fun oc ->
              List.iter
                (fun f ->
                  output_string oc
                    (Ef_obs.Json.to_string (Ef_health.Alert.firing_to_json f));
                  output_char oc '\n')
                (Ef_health.Tracker.firings health)));
      (match profile_out with
      | None -> ()
      | Some path ->
          write_sink ~flag:"--profile-out" path (fun oc ->
              Ef_health.Profiler.write_chrome profiler oc);
          if path <> "-" then
            Printf.printf "wrote Chrome trace (%d events) to %s\n"
              (Ef_health.Profiler.length profiler)
              path);
      (match prom_out with
      | None -> ()
      | Some path ->
          write_sink ~flag:"--prom-out" path (fun oc ->
              output_string oc (render_metrics ~format:`Prom ~trace ~health ()));
          if path <> "-" then Printf.printf "wrote OpenMetrics to %s\n" path);
      (match trace_out with
      | None -> ()
      | Some path ->
          write_sink ~flag:"--trace-out" path (fun oc ->
              output_string oc
                (Ef_obs.Json.to_string (Ef_trace.Recorder.to_json trace));
              output_char oc '\n');
          if path <> "-" then
            Printf.printf "wrote decision trace (%d retained cycles) to %s\n"
              (List.length (Ef_trace.Recorder.cycles trace))
              path);
      print_metrics ~format:metrics_format ~trace ~health obs_metrics
    in
    (* [- ] journals to stdout (flushed, never closed); a file is closed
       even when the run raises *)
    let journal_finish =
      match journal with
      | None -> fun () -> ()
      | Some path ->
          let oc, finish = open_sink ~flag:"--journal" path in
          Ef_obs.Registry.add_sink
            (Ef_obs.Registry.default ())
            (Ef_obs.Registry.channel_sink oc);
          finish
    in
    Fun.protect ~finally:journal_finish @@ fun () ->
    let n_cycles = max 1 (hours * 3600 / cycle_s) in
    let rc =
      S.Dfz_run.config ~cycles:n_cycles ~cycle_s ~verify:verify_incremental
        ?faults:fault_plan ()
    in
    let obs = Ef_obs.Registry.default () in
    (* dfz and mrt worlds share Dfz_run's loop, report and exporters *)
    let dfz_done name report =
      print_dfz_report name report;
      (match report.S.Dfz_run.iface_event_cycles with
      | [] -> ()
      | evs ->
          Printf.printf
            "interface churn in %d cycles; warm path held on %d of %d \
             patched cycles\n"
            (List.length evs)
            report.S.Dfz_run.incremental_hits
            (report.S.Dfz_run.cycles_run - 1));
      if verify_incremental then
        Printf.printf
          "verified %d cycles against the cold pipeline: identical\n"
          report.S.Dfz_run.verified_cycles;
      export_results ()
    in
    (match (mrt, world) with
    | Some dump_path, _ -> (
        (* --mrt: seed the table from a TABLE_DUMP_V2 dump instead of a
           generated world; rates are synthesized (Zipf over the dump's
           prefixes) and drift through the incremental snapshot chain *)
        match
          Result.bind (Bgp.Mrt.load dump_path)
            (S.Dfz_run.run_mrt ~obs ~trace ~health ~config:rc ~seed)
        with
        | Ok report -> dfz_done dump_path report
        | Error e ->
            Printf.eprintf "efctl: %s: %s\n" dump_path
              (Format.asprintf "%a" Bgp.Mrt.pp_error e);
            exit 1)
    | None, Dfz_world (name, dfz_cfg) ->
        let dfz_cfg = { dfz_cfg with N.Dfz.seed } in
        dfz_done name (S.Dfz_run.run ~obs ~trace ~health ~config:rc dfz_cfg)
    | None, Topo_world scenario ->
    if verify_incremental then
      Printf.eprintf
        "efctl: note: --verify-incremental applies to dfz and mrt worlds only\n";
    let engine = S.Engine.create ~config ~trace ~health scenario in
    let metrics = S.Engine.run engine in
    let rows = S.Metrics.rows metrics in
    Printf.printf "%s: %d cycles over %dh (controller %s)\n"
      scenario.N.Scenario.scenario_name (List.length rows) hours
      (if no_controller then "off" else "on");
    (match policy_prog with
    | None -> ()
    | Some prog ->
        Printf.printf "policy: %s (default %s)\n"
          prog.Ef_policy.program_name
          (match prog.Ef_policy.program_default with
          | Ef_policy.Accept -> "accept"
          | Ef_policy.Reject -> "reject"));
    let peaks mode = S.Metrics.peak_utilization metrics mode in
    let max_util mode =
      List.fold_left (fun acc (_, u) -> Float.max acc u) 0.0 (peaks mode)
    in
    Printf.printf "peak interface utilization: %.2f (BGP-only would be %.2f)\n"
      (max_util `Actual) (max_util `Preferred);
    Printf.printf "interfaces over capacity: %s (BGP-only: %s)\n"
      (Format.asprintf "%a" Ef_util.Units.pp_percent
         (S.Metrics.overloaded_iface_fraction metrics `Actual ~threshold:1.0))
      (Format.asprintf "%a" Ef_util.Units.pp_percent
         (S.Metrics.overloaded_iface_fraction metrics `Preferred ~threshold:1.0));
    Printf.printf "mean detoured: %s   drops: %s vs %s (BGP-only)\n"
      (Format.asprintf "%a" Ef_util.Units.pp_percent
         (S.Metrics.mean_detour_fraction metrics))
      (Ef_util.Units.rate_to_string
         (S.Metrics.total_dropped metrics `Actual
         /. float_of_int (max 1 (List.length rows))))
      (Ef_util.Units.rate_to_string
         (S.Metrics.total_dropped metrics `Preferred
         /. float_of_int (max 1 (List.length rows))));
    (match S.Metrics.lifetime_cdf metrics with
    | None -> ()
    | Some cdf ->
        Printf.printf "override lifetimes: p50 %.0fs p90 %.0fs (%d releases)\n"
          (Ef_stats.Cdf.quantile cdf 0.5)
          (Ef_stats.Cdf.quantile cdf 0.9)
          (Ef_stats.Cdf.count cdf));
    (match fault_plan with
    | None -> ()
    | Some plan ->
        let reg = Ef_obs.Registry.default () in
        let count name =
          int_of_float (Ef_obs.Counter.value (Ef_obs.Registry.counter reg name))
        in
        Printf.printf "faults: %d injected (plan seed %d)\n"
          (List.length plan.Ef_fault.Plan.faults)
          plan.Ef_fault.Plan.plan_seed;
        Printf.printf
          "degraded cycles: %d (stale %d, low-confidence %d)  skipped: %d\n"
          (count "controller.degraded.cycles")
          (count "controller.degraded.stale")
          (count "controller.degraded.low_confidence")
          (S.Engine.cycles_skipped engine);
        Printf.printf "bmp session: %d failures, %d retries, %d reconnects\n"
          (count "collector.session.failures")
          (count "collector.session.retries")
          (count "collector.session.reconnects"));
    export_results ());
    `Ok ()
  in
  let no_controller_t =
    Arg.(
      value & flag
      & info [ "no-controller" ] ~doc:"BGP-only baseline (not on dfz/mrt worlds).")
  in
  let no_sampling_t =
    Arg.(
      value & flag
      & info [ "no-sampling" ]
          ~doc:"Give the controller true rates (not on dfz/mrt worlds).")
  in
  let journal_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write the structured event journal (JSON lines) to $(docv); \
             $(b,-) journals to stdout.")
  in
  let prom_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom-out" ] ~docv:"FILE"
          ~doc:"Write the telemetry as OpenMetrics text to $(docv) on exit.")
  in
  let trace_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Enable decision tracing and write the retained trace ring as \
             JSON to $(docv) on exit.")
  in
  let profile_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:
            "Enable the self-profiler and write the run as Chrome \
             trace-event JSON (open in chrome://tracing or Perfetto) to \
             $(docv) on exit: per-stage and per-domain spans plus per-cycle \
             GC counters.")
  in
  let alerts_t =
    Arg.(
      value & flag
      & info [ "alerts" ]
          ~doc:
            "Track health (SLO state machine + alert rules) during the run \
             and print the health summary — state transitions and alert \
             firings — on exit.")
  in
  let alerts_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "alerts-out" ] ~docv:"FILE"
          ~doc:
            "Write the alert firings as JSON lines to $(docv); implies \
             health tracking. Firings are deterministic: two identical \
             seeded runs produce byte-identical files.")
  in
  let slo_deadline_t =
    slo_deadline_t
      ~doc:
        "Cycle wall-time budget for the SLO tracker (default 1.0, the \
         paper-scale acceptance bar); cycles over budget count as \
         overruns and feed the burn rate."
  in
  let mrt_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "mrt" ] ~docv:"DUMP"
          ~doc:
            "Seed the routing table from an MRT TABLE_DUMP_V2 file (e.g. a \
             RouteViews RIB archive) instead of a generated world; demand \
             is synthesized Zipf-skewed over the dump's prefixes.")
  in
  let verify_incremental_t =
    Arg.(
      value & flag
      & info [ "verify-incremental" ]
          ~doc:
            "DFZ and $(b,--mrt) worlds only: replay the identical world \
             through the cold (non-incremental) pipeline in lockstep and \
             fail unless every cycle's outputs match exactly.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate a day and summarise the outcome.")
    Term.(
      ret
        (const run $ run_world_t $ seed_t $ hours_t 24 $ cycle_t 120
       $ no_controller_t $ no_sampling_t $ metrics_t $ metrics_format_t
       $ journal_t $ faults_t $ policy_t $ prom_out_t $ trace_out_t
       $ profile_out_t $ alerts_t $ alerts_out_t $ slo_deadline_t $ mrt_t
       $ verify_incremental_t))

(* --- health ---------------------------------------------------------------- *)

let health_cmd =
  let run world seed hours cycle_s faults slo_deadline json =
    let fault_plan = resolve_fault_plan faults in
    let health =
      Ef_health.Tracker.create
        ~slo:
          {
            Ef_health.Slo.default_config with
            Ef_health.Slo.deadline_s = slo_deadline;
          }
        ~obs:(Ef_obs.Registry.default ())
        ()
    in
    let n_cycles = max 1 (hours * 3600 / cycle_s) in
    (match world with
    | Dfz_world (name, dfz_cfg) ->
        let dfz_cfg = { dfz_cfg with N.Dfz.seed } in
        let rc =
          S.Dfz_run.config ~cycles:n_cycles ~cycle_s ?faults:fault_plan ()
        in
        let report =
          S.Dfz_run.run
            ~obs:(Ef_obs.Registry.default ())
            ~health ~config:rc dfz_cfg
        in
        if not json then
          Printf.printf "%s: %s\n" name
            (Format.asprintf "%a" S.Dfz_run.pp_report report)
    | Topo_world scenario ->
        let config =
          S.Engine.make_config ~cycle_s ~duration_s:(hours * 3600) ~seed
            ?faults:fault_plan ()
        in
        let engine = S.Engine.create ~config ~health scenario in
        ignore (S.Engine.run engine : S.Metrics.t));
    if json then
      print_endline
        (Ef_obs.Json.to_string (Ef_health.Tracker.summary_json health))
    else Format.printf "%a@." Ef_health.Tracker.pp_summary health;
    (* systemctl-style exit status: 0 Healthy, 1 Degraded, 2 Broken *)
    exit (Ef_health.Slo.state_rank (Ef_health.Tracker.state health))
  in
  let slo_deadline_t =
    slo_deadline_t ~doc:"Cycle wall-time budget for the SLO tracker."
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the health summary as JSON instead of text.")
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Run a world under the health tracker and report its SLO state, \
          state transitions and alert firings. Exit status mirrors the \
          final state: 0 healthy, 1 degraded, 2 broken.")
    Term.(
      const run $ run_world_t $ seed_t $ hours_t 1 $ cycle_t 120 $ faults_t
      $ slo_deadline_t $ json_t)

(* --- explain --------------------------------------------------------------- *)

let explain_cmd =
  let run prefix_str scenario seed hours cycle_s faults cycle_index ring json =
    match Bgp.Prefix.of_string_opt prefix_str with
    | None ->
        `Error
          (false, Printf.sprintf "not a prefix: %S (want e.g. 10.1.0.0/16)" prefix_str)
    | Some prefix -> (
        let fault_plan = resolve_fault_plan faults in
        let trace = Ef_trace.Recorder.create ~capacity:ring () in
        let config =
          S.Engine.make_config ~cycle_s ~duration_s:(hours * 3600) ~seed
            ?faults:fault_plan ()
        in
        let engine = S.Engine.create ~config ~trace scenario in
        ignore (S.Engine.run engine);
        if json then
          let chosen =
            match cycle_index with
            | Some index -> Ef_trace.Recorder.find_cycle trace ~index
            | None -> (
                match List.rev (Ef_trace.Recorder.cycles_touching trace prefix) with
                | c :: _ -> Some c
                | [] -> None)
          in
          match chosen with
          | Some c ->
              print_endline
                (Ef_obs.Json.to_string (Ef_trace.Recorder.cycle_to_json c));
              `Ok ()
          | None ->
              `Error
                (false,
                 Format.asprintf "no retained cycle touches %a" Bgp.Prefix.pp
                   prefix)
        else
          match Ef_trace.Explain.explain trace ?cycle:cycle_index prefix with
          | Ok text ->
              print_string text;
              `Ok ()
          | Error msg -> `Error (false, msg))
  in
  let prefix_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PREFIX" ~doc:"Prefix to explain (e.g. 10.1.0.0/16).")
  in
  let cycle_index_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "cycle-index" ] ~docv:"N"
          ~doc:
            "Explain controller cycle number $(docv) (1-based) instead of \
             the most recent cycle that touched the prefix.")
  in
  let ring_t =
    Arg.(
      value & opt (int_at_least 1) 64
      & info [ "ring" ] ~docv:"N" ~doc:"Trace ring capacity (retained cycles).")
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the selected cycle's raw trace record as JSON.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Simulate, then reconstruct the projection -> allocation -> guard \
          -> override chain for one prefix.")
    Term.(
      ret
        (const run $ prefix_t $ scenario_t $ seed_t $ hours_t 1 $ cycle_t 120
       $ faults_t $ cycle_index_t $ ring_t $ json_t))

(* --- top -------------------------------------------------------------------- *)

let top_cmd =
  let module R = Ef_trace.Recorder in
  let bar width frac =
    let frac = Float.max 0.0 (Float.min 1.2 frac) in
    let n = int_of_float (frac /. 1.2 *. float_of_int width) in
    String.init width (fun i -> if i < n then '#' else '.')
  in
  let render ~scenario_name ~plain ~health (c : R.cycle) =
    if not plain then print_string "\027[2J\027[H";
    Printf.printf "efctl top — %s   cycle %d   t=%s%s\n" scenario_name
      c.R.cy_index
      (Format.asprintf "%a" Ef_util.Units.pp_time_of_day c.R.cy_time_s)
      (match c.R.cy_degraded with
      | None -> ""
      | Some reason -> Printf.sprintf "   DEGRADED(%s)" reason);
    Printf.printf "\n%-16s %-9s %6s %6s %6s  utilization\n" "interface"
      "capacity" "proj" "enf" "act";
    let util cap bps = if cap <= 0.0 then 0.0 else bps /. cap in
    let rows =
      List.sort
        (fun (a : R.iface_row) b ->
          compare
            (util b.R.if_capacity_bps b.R.if_enforced_bps)
            (util a.R.if_capacity_bps a.R.if_enforced_bps))
        c.R.cy_ifaces
    in
    List.iter
      (fun (row : R.iface_row) ->
        let u bps = util row.R.if_capacity_bps bps in
        Printf.printf "%-16s %-9s %5.0f%% %5.0f%% %6s  [%s]\n" row.R.if_name
          (Ef_util.Units.rate_to_string row.R.if_capacity_bps)
          (100.0 *. u row.R.if_projected_bps)
          (100.0 *. u row.R.if_enforced_bps)
          (match row.R.if_actual_bps with
          | None -> "-"
          | Some bps -> Printf.sprintf "%.0f%%" (100.0 *. u bps))
          (bar 24 (u row.R.if_enforced_bps)))
      rows;
    let hys_count pick =
      List.length (List.filter (fun e -> pick e.R.hy_disposition) c.R.cy_hys)
    in
    Printf.printf
      "\noverrides: %d active   +%d installed  ~%d retargeted  -%d released  \
       %d damped\n"
      (List.length c.R.cy_enforced)
      (hys_count (function R.Installed -> true | _ -> false))
      (hys_count (function R.Retargeted _ -> true | _ -> false))
      (hys_count (function R.Released _ -> true | _ -> false))
      (hys_count (function
        | R.Hold_retarget _ | R.Release_deferred _ -> true
        | _ -> false));
    let heaviest =
      List.sort
        (fun (a : R.enforced) b -> compare b.R.en_rate_bps a.R.en_rate_bps)
        c.R.cy_enforced
    in
    List.iteri
      (fun i (e : R.enforced) ->
        if i < 10 then
          Printf.printf "  %-20s %-9s iface %d -> %d  peer %-4d age %4ds\n"
            (Bgp.Prefix.to_string e.R.en_prefix)
            (Ef_util.Units.rate_to_string e.R.en_rate_bps)
            e.R.en_from_iface e.R.en_to_iface e.R.en_peer_id e.R.en_age_s)
      heaviest;
    if List.length heaviest > 10 then
      Printf.printf "  ... and %d more\n" (List.length heaviest - 10);
    (* health strip: SLO state + the most recent alert firings *)
    Printf.printf "\nhealth: %s   burn %.2f   alerts fired: %d\n"
      (Ef_health.Slo.state_to_string (Ef_health.Tracker.state health))
      (Ef_health.Slo.burn_rate (Ef_health.Tracker.slo_exn health))
      (List.length (Ef_health.Tracker.firings health));
    let firings = Ef_health.Tracker.firings health in
    let n = List.length firings in
    List.iteri
      (fun i f ->
        if i >= n - 5 then
          Format.printf "  %a@." Ef_health.Alert.pp_firing f)
      firings;
    flush stdout
  in
  let run scenario seed hours cycle_s faults delay_ms plain =
    let fault_plan = resolve_fault_plan faults in
    let trace = R.create ~capacity:2 () in
    let health = Ef_health.Tracker.create () in
    let config =
      S.Engine.make_config ~cycle_s ~duration_s:(hours * 3600) ~seed
        ?faults:fault_plan ()
    in
    let engine = S.Engine.create ~config ~trace ~health scenario in
    let steps = hours * 3600 / cycle_s in
    for _ = 1 to steps do
      ignore (S.Engine.step engine);
      (match R.latest trace with
      | None -> ()
      | Some c ->
          render ~scenario_name:scenario.N.Scenario.scenario_name ~plain
            ~health c);
      if delay_ms > 0 then Unix.sleepf (float_of_int delay_ms /. 1000.0)
    done
  in
  let delay_t =
    Arg.(
      value & opt int 100
      & info [ "delay-ms" ] ~docv:"MS"
          ~doc:"Wall-clock delay between frames (0 = as fast as possible).")
  in
  let plain_t =
    Arg.(
      value & flag
      & info [ "plain" ]
          ~doc:"No ANSI clear between frames (append frames instead).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal view: hottest interfaces, active overrides with \
          ages, degradation state.")
    Term.(
      const run $ scenario_t $ seed_t $ hours_t 1 $ cycle_t 120 $ faults_t
      $ delay_t $ plain_t)

(* --- experiment ----------------------------------------------------------- *)

let experiment_cmd =
  let run id cycle_s jobs metrics =
    let params =
      { S.Experiments.default_params with S.Experiments.cycle_s; jobs }
    in
    let table =
      match id with
      | "e1" -> Some (S.Experiments.e1_peering ())
      | "e2" -> Some (S.Experiments.e2_route_diversity ())
      | "e3" -> Some (S.Experiments.e3_preference_mix ())
      | "e4" -> Some (S.Experiments.e4_bgp_only_overload ~params ())
      | "e5" -> Some (S.Experiments.e5_detour_volume ~params ())
      | "e6" -> Some (S.Experiments.e6_detour_levels ~params ())
      | "e7" -> Some (S.Experiments.e7_override_churn ~params ())
      | "e8" -> Some (S.Experiments.e8_altpath_quality ~params ())
      | "e9" -> Some (S.Experiments.e9_detour_rtt_impact ~params ())
      | "e12" -> Some (S.Experiments.e12_perf_aware ~params ())
      | "a1" -> Some (S.Experiments.a1_single_pass ~params ())
      | "a3" -> Some (S.Experiments.a3_threshold_sweep ~params ())
      | "a4" -> Some (S.Experiments.a4_granularity ~params ())
      | _ -> None
    in
    match table with
    | Some t ->
        Ef_stats.Table.print t;
        print_metrics metrics;
        `Ok ()
    | None ->
        `Error
          (false, Printf.sprintf "unknown experiment %S (e1-e9, e12, a1, a3, a4)" id)
  in
  let id_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"e1..e9, e12, a1, a3, a4.")
  in
  let jobs_t =
    jobs_t
      ~doc:
        "Run the experiment's daily simulations on $(docv) domains (1-128). \
         Results are identical for every value."
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate one table/figure of the paper.")
    Term.(ret (const run $ id_t $ cycle_t 120 $ jobs_t $ metrics_t))

(* --- topo (graphviz export) ----------------------------------------------- *)

let topo_cmd =
  let run scenario =
    let world = N.Topo_gen.generate scenario.N.Scenario.topo in
    let pop = world.N.Topo_gen.pop in
    Printf.printf "graph %s {\n  rankdir=LR;\n  node [shape=box];\n"
      (String.map (fun c -> if c = '-' then '_' else c) (N.Pop.name pop));
    Printf.printf "  pop [label=\"%s\\n%s\", style=filled];\n" (N.Pop.name pop)
      (Ef_util.Units.rate_to_string (N.Pop.total_capacity_bps pop));
    List.iter
      (fun iface ->
        Printf.printf "  iface%d [label=\"%s\\n%s\"];\n  pop -- iface%d;\n"
          (N.Iface.id iface) (N.Iface.name iface)
          (Ef_util.Units.rate_to_string (N.Iface.capacity_bps iface))
          (N.Iface.id iface);
        List.iter
          (fun peer ->
            Printf.printf
              "  peer%d [label=\"%s\", shape=ellipse];\n  iface%d -- peer%d;\n"
              (Bgp.Peer.id peer) peer.Bgp.Peer.name (N.Iface.id iface)
              (Bgp.Peer.id peer))
          (N.Pop.peers_on_iface pop ~iface_id:(N.Iface.id iface)))
      (N.Pop.interfaces pop);
    print_endline "}"
  in
  Cmd.v
    (Cmd.info "topo" ~doc:"Print the PoP topology as graphviz dot.")
    Term.(const run $ scenario_t)

(* --- dump (MRT export) --------------------------------------------------- *)

let dump_cmd =
  let run scenario out =
    let world = N.Topo_gen.generate scenario.N.Scenario.topo in
    let rib = N.Pop.rib world.N.Topo_gen.pop in
    let mrt =
      Bgp.Mrt.of_rib ~collector_id:(Bgp.Ipv4.of_string "10.0.0.1") rib
    in
    Bgp.Mrt.save out ~timestamp:0 mrt;
    Printf.printf "wrote %d peers, %d prefixes (%d routes) to %s (MRT TABLE_DUMP_V2)\n"
      (List.length mrt.Bgp.Mrt.peers)
      (List.length mrt.Bgp.Mrt.records)
      (Bgp.Rib.route_count rib) out
  in
  let out_t =
    Arg.(
      value & opt string "rib.mrt"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"MRT file to write.")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Export a world's RIB as an MRT TABLE_DUMP_V2 file.")
    Term.(const run $ scenario_t $ out_t)

(* --- fleet ------------------------------------------------------------- *)

let fleet_cmd =
  let run seed hours cycle_s jobs metrics profile_out =
    let config =
      S.Engine.make_config ~cycle_s ~duration_s:(hours * 3600) ~seed ()
    in
    let profiler =
      match profile_out with
      | None -> Ef_health.Profiler.noop
      | Some _ -> Ef_health.Profiler.create ()
    in
    let fleet = S.Fleet.of_paper_pops ~config ~profiler () in
    Printf.printf "running %d PoPs for %dh (this is %d controller cycles)...\n%!"
      (List.length (S.Fleet.engines fleet))
      hours
      (List.length (S.Fleet.engines fleet) * hours * 3600 / cycle_s);
    let results = S.Fleet.run ~jobs fleet in
    Ef_stats.Table.print (S.Fleet.summary_table results);
    (match profile_out with
    | None -> ()
    | Some path ->
        write_sink ~flag:"--profile-out" path (fun oc ->
            Ef_health.Profiler.write_chrome profiler oc);
        if path <> "-" then
          Printf.printf "wrote Chrome trace (%d events, %d domains) to %s\n"
            (Ef_health.Profiler.length profiler)
            (List.length (Ef_health.Profiler.tids profiler))
            path);
    print_metrics metrics
  in
  let jobs_t =
    jobs_t
      ~doc:
        "Run PoPs on $(docv) domains in parallel (1-128). The dashboard is \
         byte-identical for every value."
  in
  let profile_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:
            "Profile the run and write Chrome trace-event JSON to $(docv): \
             one row per domain, every engine/controller stage span, pool \
             tasks tagged by lane, and the post-barrier merge.")
  in
  Cmd.v
    (Cmd.info "fleet" ~doc:"Run every paper PoP and print the fleet dashboard.")
    Term.(
      const run $ seed_t $ hours_t 24 $ cycle_t 300 $ jobs_t $ metrics_t
      $ profile_out_t)

(* --- record / replay ------------------------------------------------------ *)

let record_cmd =
  let run scenario seed hour hours cycle_s out =
    let config =
      S.Engine.make_config ~cycle_s ~duration_s:(hours * 3600)
        ~start_s:(hour * 3600) ~controller_enabled:false ~seed ()
    in
    let engine = S.Engine.create ~config scenario in
    let snapshots = ref [] in
    for _ = 1 to hours * 3600 / cycle_s do
      ignore (S.Engine.step engine);
      snapshots := S.Engine.snapshot_now engine :: !snapshots
    done;
    let snapshots = List.rev !snapshots in
    C.Trace.save out snapshots;
    Printf.printf "recorded %d snapshots to %s
" (List.length snapshots) out
  in
  let out_t =
    Arg.(
      value & opt string "trace.txt"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace file to write.")
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Record controller-input snapshots to a trace file.")
    Term.(
      const run $ scenario_t $ seed_t $ hour_t
      $ hours_t ~doc:"Window length." 1
      $ cycle_t ~doc:"Snapshot period." 300
      $ out_t)

let replay_cmd =
  let run file threshold metrics =
    match C.Trace.load file with
    | Error msg -> `Error (false, msg)
    | Ok snapshots ->
        let config = Ef.Config.make ~overload_threshold:threshold () in
        let ctrl = Ef.Controller.create ~config ~name:"replay" () in
        Printf.printf "%-9s %-10s %-11s %-9s %-9s %s\n" "time" "prefixes"
          "overloaded" "overrides" "detoured" "residual";
        List.iter
          (fun snapshot ->
            let stats = Ef.Controller.cycle ctrl snapshot in
            Printf.printf "%-9s %-10d %-11d %-9d %-9s %d\n"
              (Format.asprintf "%a" Ef_util.Units.pp_time_of_day
                 (Ef.Controller.time_s stats))
              (C.Snapshot.prefix_count snapshot)
              (List.length (Ef.Controller.overloaded_before stats))
              (List.length (Ef.Controller.overrides_enforced stats))
              (Format.asprintf "%a" Ef_util.Units.pp_percent
                 (Ef.Controller.detour_fraction stats))
              (List.length (Ef.Controller.residual_overloads stats)))
          snapshots;
        print_metrics metrics;
        `Ok ()
  in
  let file_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Trace file.")
  in
  let threshold_t =
    Arg.(
      value & opt float 0.95
      & info [ "threshold" ] ~docv:"T" ~doc:"Overload threshold to replay with.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a recorded trace through a (possibly reconfigured) controller.")
    Term.(ret (const run $ file_t $ threshold_t $ metrics_t))

(* efctl policy NAME|FILE: inspect a program — pretty-print it, show its
   allocator-side denotation in a scenario's world, optionally the
   compiled route-map, optionally write canonical JSON *)
let policy_cmd =
  let run name_or_file scenario compile out =
    match resolve_policy (Some name_or_file) with
    | None -> assert false (* resolve_policy exits on failure *)
    | Some prog ->
        Format.printf "%a@." Ef_policy.pp_program prog;
        let world = N.Topo_gen.generate scenario.N.Scenario.topo in
        let env = N.Topo_gen.policy_env world in
        let ap = Ef_policy.alloc_params env prog.Ef_policy.program_policy in
        Format.printf "@[<v 2>allocator/perf knobs in %s:@ %a@]@."
          scenario.N.Scenario.scenario_name Ef_policy.pp_alloc_params ap;
        if compile then begin
          let map = Ef_policy.Compile.program_route_map env prog in
          Format.printf "@[<v 2>compiled route-map:@ %a@]@." Bgp.Policy.pp map
        end;
        (match out with
        | None -> ()
        | Some path -> (
            match Ef_policy.Codec.save path prog with
            | () -> Printf.printf "wrote policy JSON to %s\n" path
            | exception Sys_error msg ->
                Printf.eprintf "efctl: cannot write %s: %s\n" path msg;
                exit 1));
        `Ok ()
  in
  let name_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME|FILE"
          ~doc:"Canned program name (see $(b,scenarios)) or policy JSON file.")
  in
  let compile_t =
    Arg.(
      value & flag
      & info [ "compile" ]
          ~doc:"Also print the route-map the program compiles to.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the program as canonical policy JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "policy"
       ~doc:"Inspect an Ef_policy program (and what it compiles to).")
    Term.(ret (const run $ name_t $ scenario_t $ compile_t $ out_t))

let () =
  let doc = "Edge Fabric: egress traffic engineering, reproduced in OCaml" in
  let info = Cmd.info "efctl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [ scenarios_cmd; world_cmd; cycle_cmd; run_cmd; health_cmd; explain_cmd; top_cmd; experiment_cmd; record_cmd; replay_cmd; fleet_cmd; dump_cmd; topo_cmd; policy_cmd ]))
