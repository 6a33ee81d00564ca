(* Ef_fault: plan DSL, injector determinism, retry backoff, and the
   engine-level guarantees the fault subsystem exists to provide —
   deterministic journals and fail-static degradation under feed loss. *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
module Ef = Edge_fabric
module S = Ef_sim
module F = Ef_fault
module Obs = Ef_obs

let chaos () =
  match N.Scenario.find_fault_plan "chaos" with
  | Some p -> p
  | None -> Alcotest.fail "canned chaos plan missing"

(* --- plan DSL ----------------------------------------------------------- *)

let test_plan_json_roundtrip () =
  List.iter
    (fun (name, plan) ->
      match F.Plan.of_string (F.Plan.to_string plan) with
      | Error msg -> Alcotest.failf "%s: reparse failed: %s" name msg
      | Ok plan' ->
          Alcotest.(check bool)
            (name ^ " roundtrips") true
            (F.Plan.equal plan plan'))
    N.Scenario.fault_plans

let test_plan_file_roundtrip () =
  let path = Filename.temp_file "ef_fault_plan" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      F.Plan.save path (chaos ());
      match F.Plan.load path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok plan ->
          Alcotest.(check bool) "file roundtrip" true (F.Plan.equal (chaos ()) plan))

let test_plan_validate_rejects () =
  let bad =
    [
      ( "empty window",
        F.Plan.make [ F.Plan.Bmp_stall { from_s = 100; until_s = 100 } ] );
      ( "negative factor",
        F.Plan.make
          [
            F.Plan.Capacity_degradation
              { iface_id = 0; from_s = 0; until_s = 10; factor = -0.5 };
          ] );
      ( "drop fraction above 1",
        F.Plan.make
          [
            F.Plan.Sflow_loss { from_s = 0; until_s = 10; drop_fraction = 1.5 };
          ] );
      ( "zero delay",
        F.Plan.make
          [ F.Plan.Cycle_delay { from_s = 0; until_s = 10; delay_s = 0 } ] );
    ]
  in
  List.iter
    (fun (name, plan) ->
      match F.Plan.validate plan with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "validate accepted %s" name)
    bad;
  (* and the invalid plan must not parse back in either *)
  let plan = F.Plan.make [ F.Plan.Bmp_stall { from_s = 9; until_s = 3 } ] in
  match F.Plan.of_string (F.Plan.to_string plan) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_string accepted an invalid plan"

(* --- injector ------------------------------------------------------------ *)

let flap_plan ~seed =
  F.Plan.make ~seed
    [
      F.Plan.Link_flap
        { iface_id = 0; from_s = 0; until_s = 2000; period_s = 120; down_s = 40 };
    ]

let test_injector_deterministic () =
  let i1 = F.Injector.create (flap_plan ~seed:5) in
  let i2 = F.Injector.create (flap_plan ~seed:5) in
  Alcotest.(check (list (pair int int)))
    "same seed, same windows"
    (F.Injector.flap_windows i1 ~iface_id:0)
    (F.Injector.flap_windows i2 ~iface_id:0);
  for time_s = 0 to 2000 do
    if
      F.Injector.link_down i1 ~iface_id:0 ~time_s
      <> F.Injector.link_down i2 ~iface_id:0 ~time_s
    then Alcotest.failf "link_down diverges at t=%d" time_s
  done

let test_injector_seed_sensitivity () =
  let i1 = F.Injector.create (flap_plan ~seed:5) in
  let i2 = F.Injector.create (flap_plan ~seed:6) in
  Alcotest.(check bool)
    "different seed jitters differently" false
    (F.Injector.flap_windows i1 ~iface_id:0
    = F.Injector.flap_windows i2 ~iface_id:0)

let test_injector_windows_within_plan () =
  let inj = F.Injector.create (flap_plan ~seed:9) in
  let windows = F.Injector.flap_windows inj ~iface_id:0 in
  Alcotest.(check bool) "some outages expanded" true (windows <> []);
  List.iter
    (fun (a, b) ->
      if a >= b || a < 0 || b > 2000 then
        Alcotest.failf "window [%d,%d) escapes the fault window" a b)
    windows;
  (* outside every window the link is up; inside it is down *)
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "down at onset" true
        (F.Injector.link_down inj ~iface_id:0 ~time_s:a);
      Alcotest.(check bool) "up at close" false
        (F.Injector.link_down inj ~iface_id:0 ~time_s:b))
    windows

let test_injector_queries () =
  let inj = F.Injector.create (chaos ()) in
  (* chaos: capacity degradation on iface 1 over [180,420) at 0.5 *)
  Alcotest.(check (float 1e-9)) "degraded factor" 0.5
    (F.Injector.capacity_factor inj ~iface_id:1 ~time_s:200);
  Alcotest.(check (float 1e-9)) "healthy before" 1.0
    (F.Injector.capacity_factor inj ~iface_id:1 ~time_s:100);
  Alcotest.(check bool) "bmp stalled inside" true
    (F.Injector.bmp_stalled inj ~time_s:300);
  Alcotest.(check bool) "bmp healthy outside" false
    (F.Injector.bmp_stalled inj ~time_s:100);
  Alcotest.(check (float 1e-9)) "sflow loss inside" 0.5
    (F.Injector.sflow_drop_fraction inj ~time_s:150);
  Alcotest.(check int) "cycle delay inside" 20
    (F.Injector.cycle_delay_s inj ~time_s:350);
  let labels = F.Injector.active_labels inj ~time_s:300 in
  Alcotest.(check bool) "labels include bmp_stall" true
    (List.mem "bmp_stall" labels)

(* --- retry state machine ------------------------------------------------- *)

let test_retry_backoff () =
  let config = { C.Retry.base_delay_s = 30; max_delay_s = 480; max_attempts = 8 } in
  let r = C.Retry.create ~config () in
  Alcotest.(check bool) "starts healthy" true (C.Retry.healthy r);
  C.Retry.on_failure r ~time_s:0;
  (match C.Retry.state r with
  | C.Retry.Backing_off { attempt = 1; retry_at_s = 30 } -> ()
  | _ -> Alcotest.failf "unexpected state: %s" (Format.asprintf "%a" C.Retry.pp r));
  Alcotest.(check bool) "too early" false (C.Retry.should_retry r ~time_s:10);
  Alcotest.(check bool) "deadline passed" true (C.Retry.should_retry r ~time_s:31);
  (* delays double up to the cap *)
  C.Retry.on_failure r ~time_s:31;
  (match C.Retry.state r with
  | C.Retry.Backing_off { attempt = 2; retry_at_s } ->
      Alcotest.(check int) "doubled" (31 + 60) retry_at_s
  | _ -> Alcotest.fail "expected backing off");
  C.Retry.on_success r;
  Alcotest.(check bool) "recovered" true (C.Retry.healthy r);
  Alcotest.(check int) "reconnect counted" 1 (C.Retry.reconnects r)

let test_retry_gives_up () =
  let config = { C.Retry.base_delay_s = 1; max_delay_s = 8; max_attempts = 3 } in
  let r = C.Retry.create ~config () in
  for i = 0 to 3 do
    C.Retry.on_failure r ~time_s:(i * 100)
  done;
  Alcotest.(check bool) "gave up" true (C.Retry.state r = C.Retry.Gave_up);
  Alcotest.(check bool) "no more retries" false
    (C.Retry.should_retry r ~time_s:100_000);
  Alcotest.(check int) "failures counted" 4 (C.Retry.failures r)

let test_retry_counter_frozen_after_give_up () =
  (* once Gave_up, further failure reports are no-ops: the counter (and
     pp) keep showing what it took to give up instead of drifting *)
  let config = { C.Retry.base_delay_s = 1; max_delay_s = 8; max_attempts = 2 } in
  let r = C.Retry.create ~config () in
  for i = 0 to 2 do
    C.Retry.on_failure r ~time_s:(i * 100)
  done;
  Alcotest.(check bool) "gave up" true (C.Retry.state r = C.Retry.Gave_up);
  let at_give_up = C.Retry.failures r in
  let pp_at_give_up = Format.asprintf "%a" C.Retry.pp r in
  C.Retry.on_failure r ~time_s:1_000;
  C.Retry.on_failure r ~time_s:2_000;
  Alcotest.(check int) "counter frozen" at_give_up (C.Retry.failures r);
  Alcotest.(check string) "pp stable" pp_at_give_up
    (Format.asprintf "%a" C.Retry.pp r);
  Alcotest.(check bool) "still gave up" true
    (C.Retry.state r = C.Retry.Gave_up);
  (* recovery still works from Gave_up *)
  C.Retry.on_success r;
  Alcotest.(check bool) "healthy again" true (C.Retry.healthy r);
  Alcotest.(check int) "reconnect counted" 1 (C.Retry.reconnects r)

(* --- engine: journal determinism ----------------------------------------- *)

(* journals compare on event name + fields only: ev_time_ns is a
   monotonic wall-clock stamp, while every field carries simulated time *)
let journal_of_run ~seed plan =
  let reg = Obs.Registry.create () in
  let sink, drain = Obs.Registry.memory_sink () in
  Obs.Registry.add_sink reg sink;
  let config =
    S.Engine.make_config ~cycle_s:30 ~duration_s:600 ~seed ~faults:plan ()
  in
  let engine = S.Engine.create ~config ~obs:reg N.Scenario.tiny in
  ignore (S.Engine.run engine);
  ( String.concat "\n"
      (List.map
         (fun ev ->
           ev.Obs.Registry.Event.ev_name ^ " "
           ^ Obs.Json.to_string (Obs.Json.Obj ev.Obs.Registry.Event.ev_fields))
         (drain ())),
    engine )

let test_journal_deterministic () =
  let j1, _ = journal_of_run ~seed:3 (chaos ()) in
  let j2, _ = journal_of_run ~seed:3 (chaos ()) in
  Alcotest.(check bool) "journals non-empty" true (String.length j1 > 0);
  Alcotest.(check string) "same seed+plan, identical journal" j1 j2

let test_journal_seed_sensitive () =
  let j1, _ = journal_of_run ~seed:3 (chaos ()) in
  let j2, _ = journal_of_run ~seed:4 (chaos ()) in
  Alcotest.(check bool) "different seed, different journal" false (j1 = j2)

(* --- engine: graceful degradation under a BMP stall ---------------------- *)

let test_bmp_stall_degrades_and_recovers () =
  let plan =
    F.Plan.make ~seed:2 [ F.Plan.Bmp_stall { from_s = 120; until_s = 360 } ]
  in
  let reg = Obs.Registry.create () in
  let config =
    S.Engine.make_config ~cycle_s:30 ~duration_s:600 ~seed:3
      ~controller_config:(Ef.Config.make ~max_snapshot_age_s:60 ())
      ~faults:plan ()
  in
  let engine = S.Engine.create ~config ~obs:reg N.Scenario.tiny in
  let overrides_during_stall = ref [] in
  for _ = 1 to 20 do
    let before = S.Engine.now_s engine in
    ignore (S.Engine.step engine);
    match (S.Engine.last_state engine, S.Engine.controller engine) with
    | Some st, Some _ when before >= 210 && before < 360 ->
        (* well into the stall: snapshot age exceeds 60s, controller
           must be holding, not recomputing *)
        overrides_during_stall :=
          st.S.Engine.active_overrides :: !overrides_during_stall
    | _ -> ()
  done;
  let count name =
    int_of_float (Obs.Counter.value (Obs.Registry.counter reg name))
  in
  Alcotest.(check bool) "degraded cycles recorded" true
    (count "controller.degraded.cycles" > 0);
  Alcotest.(check bool) "stale reason recorded" true
    (count "controller.degraded.stale" > 0);
  Alcotest.(check bool) "session failures recorded" true
    (count "collector.session.failures" > 0);
  Alcotest.(check bool) "session recovered" true
    (count "collector.session.reconnects" > 0);
  (* fail-static: the held override set does not change across the
     degraded cycles *)
  (match !overrides_during_stall with
  | [] -> Alcotest.fail "stall window produced no observed cycles"
  | first :: rest ->
      let key set =
        List.sort compare
          (List.map
             (fun (o : Ef.Override.t) -> Bgp.Prefix.to_string o.Ef.Override.prefix)
             set)
      in
      List.iter
        (fun set ->
          Alcotest.(check (list string)) "overrides held" (key first) (key set))
        rest);
  Alcotest.(check bool) "bmp session healthy after window" true
    (C.Retry.healthy (S.Engine.bmp_session engine))

let test_cycle_skip_holds_overrides () =
  let plan =
    F.Plan.make ~seed:2 [ F.Plan.Cycle_skip { from_s = 90; until_s = 240 } ]
  in
  let config =
    S.Engine.make_config ~cycle_s:30 ~duration_s:300 ~seed:3 ~faults:plan ()
  in
  let engine = S.Engine.create ~config N.Scenario.tiny in
  ignore (S.Engine.run engine);
  Alcotest.(check int) "five cycles skipped" 5 (S.Engine.cycles_skipped engine)

let suite =
  [
    Alcotest.test_case "plan json roundtrip" `Quick test_plan_json_roundtrip;
    Alcotest.test_case "plan file roundtrip" `Quick test_plan_file_roundtrip;
    Alcotest.test_case "plan validate rejects" `Quick test_plan_validate_rejects;
    Alcotest.test_case "injector deterministic" `Quick test_injector_deterministic;
    Alcotest.test_case "injector seed sensitivity" `Quick
      test_injector_seed_sensitivity;
    Alcotest.test_case "injector windows" `Quick test_injector_windows_within_plan;
    Alcotest.test_case "injector queries" `Quick test_injector_queries;
    Alcotest.test_case "retry backoff" `Quick test_retry_backoff;
    Alcotest.test_case "retry gives up" `Quick test_retry_gives_up;
    Alcotest.test_case "retry counter frozen after give-up" `Quick
      test_retry_counter_frozen_after_give_up;
    Alcotest.test_case "journal deterministic" `Quick test_journal_deterministic;
    Alcotest.test_case "journal seed sensitive" `Quick test_journal_seed_sensitive;
    Alcotest.test_case "bmp stall degrades+recovers" `Quick
      test_bmp_stall_degrades_and_recovers;
    Alcotest.test_case "cycle skip holds overrides" `Quick
      test_cycle_skip_holds_overrides;
  ]
