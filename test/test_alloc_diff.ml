(* Differential pin: the optimized allocator (indexed snapshot, working
   projection, incremental overload set) must be observationally
   byte-identical to the frozen pre-PR reference (Allocator_ref) —
   same overrides, same residuals, same counters, same final loads, same
   trace records — across seeded worlds and every config axis the loop
   branches on. *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
module Ef = Edge_fabric
module Trace = Ef_trace.Recorder

let override_list : Ef.Override.t list Alcotest.testable =
  Alcotest.testable
    (Fmt.Dump.list Ef.Override.pp)
    (fun a b -> a = b)

let snapshot_of_world ?rate_factor world =
  Gen.snapshot_of_world ?rate_factor world

(* every config axis the relief loop branches on *)
let configs =
  [|
    ("default", Ef.Config.default);
    ("single-pass", { Ef.Config.default with iterative = false });
    ( "split-24",
      {
        Ef.Config.default with
        granularity = Split_24;
        overload_threshold = 0.85;
      } );
  |]

let trace_bytes tr = Ef_obs.Json.to_string (Trace.to_json tr)

let loads_of proj ifaces =
  List.map
    (fun i ->
      (N.Iface.id i, Ef.Projection.load_bps proj ~iface_id:(N.Iface.id i)))
    ifaces

let residual_ids r =
  List.map (fun (i, u) -> (N.Iface.id i, u)) r.Ef.Allocator.residual

let check_identical ~ctx ~config snap =
  let traced run =
    let tr = Trace.create () in
    Trace.begin_cycle tr ~index:1 ~time_s:0;
    let result = run ~config ~trace:tr snap in
    Trace.end_cycle tr;
    (result, tr)
  in
  let opt, tr_opt = traced (fun ~config ~trace s -> Ef.Allocator.run ~config ~trace s) in
  let rf, tr_ref = traced (fun ~config ~trace s -> Allocator_ref.run ~config ~trace s) in
  Alcotest.check override_list (ctx ^ ": overrides") rf.Ef.Allocator.overrides
    opt.Ef.Allocator.overrides;
  Alcotest.(check (list (pair int (float 0.0))))
    (ctx ^ ": residual") (residual_ids rf) (residual_ids opt);
  Alcotest.(check int)
    (ctx ^ ": moves") rf.Ef.Allocator.moves_considered
    opt.Ef.Allocator.moves_considered;
  Alcotest.(check int) (ctx ^ ": splits") rf.Ef.Allocator.splits opt.Ef.Allocator.splits;
  let ifaces = C.Snapshot.ifaces snap in
  Alcotest.(check (list (pair int (float 0.0))))
    (ctx ^ ": final loads")
    (loads_of rf.Ef.Allocator.final ifaces)
    (loads_of opt.Ef.Allocator.final ifaces);
  Alcotest.(check string)
    (ctx ^ ": trace bytes") (trace_bytes tr_ref) (trace_bytes tr_opt)

(* 100 seeded worlds × cycled config/demand variations *)
let test_differential_seeded_worlds () =
  for i = 0 to 99 do
    let cfg_name, config = configs.(i mod Array.length configs) in
    let world =
      N.Topo_gen.generate { N.Topo_gen.small_config with N.Topo_gen.seed = 1000 + i }
    in
    let rate_factor = 0.8 +. (0.15 *. float_of_int (i mod 5)) in
    let snap = snapshot_of_world ~rate_factor world in
    let ctx = Printf.sprintf "world %d (%s, x%.2f)" i cfg_name rate_factor in
    check_identical ~ctx ~config snap
  done

(* the same pin on the larger canned scenarios the benches use *)
let test_differential_scenarios () =
  List.iter
    (fun scenario ->
      let world = N.Topo_gen.generate scenario.N.Scenario.topo in
      let snap = snapshot_of_world world in
      check_identical ~ctx:scenario.N.Scenario.scenario_name
        ~config:Ef.Config.default snap)
    [ N.Scenario.tiny; N.Scenario.pop_d ]

(* overrides byte-render identically, not merely structurally *)
let test_differential_override_rendering () =
  let world =
    N.Topo_gen.generate { N.Topo_gen.small_config with N.Topo_gen.seed = 77 }
  in
  let snap = snapshot_of_world ~rate_factor:1.2 world in
  let render r =
    List.map
      (fun o -> Format.asprintf "%a" Ef.Override.pp o)
      r.Ef.Allocator.overrides
  in
  let opt = Ef.Allocator.run ~config:Ef.Config.default snap in
  let rf = Allocator_ref.run ~config:Ef.Config.default snap in
  Alcotest.(check (list string)) "rendered overrides" (render rf) (render opt)

let suite =
  [
    Alcotest.test_case "optimized = reference on 100 seeded worlds" `Quick
      test_differential_seeded_worlds;
    Alcotest.test_case "optimized = reference on canned scenarios" `Quick
      test_differential_scenarios;
    Alcotest.test_case "override rendering byte-identical" `Quick
      test_differential_override_rendering;
  ]
