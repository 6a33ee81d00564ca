(* Performance-aware routing: the paper's §7 extension.

   Run with:  dune exec examples/perf_aware.exe

   Runs the alternate-path measurement pipeline for a simulated hour —
   a sliver of flows per prefix is pinned to 2nd/3rd/4th-preference
   routes (the paper does this with DSCP marking) — then asks the
   performance policy which prefixes would be better off somewhere
   other than where BGP puts them, and prints the evidence. *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
module Ef = Edge_fabric
module A = Ef_altpath
module S = Ef_sim

let scenario = N.Scenario.pop_a

let () =
  let config =
    S.Engine.make_config ~cycle_s:60 ~duration_s:3600 ~start_s:(20 * 3600)
      ~use_sampling:false ~measure_altpaths:true ~seed:9 ()
  in
  let engine = S.Engine.create ~config scenario in
  Printf.printf "Measuring alternate paths for an hour at %s...\n%!"
    scenario.N.Scenario.scenario_name;
  ignore (S.Engine.run engine);

  let measurer = Option.get (S.Engine.measurer engine) in
  let store = A.Measurer.store measurer in
  let snapshot = S.Engine.snapshot_now engine in
  Printf.printf "paths with samples: %d\n\n" (A.Path_store.paths_measured store);

  (* Figure-10 style summary: how do best alternates compare? *)
  let comparisons = A.Measurer.comparisons measurer snapshot in
  let n = List.length comparisons in
  let count pred = List.length (List.filter pred comparisons) in
  Printf.printf "prefixes compared: %d\n" n;
  Printf.printf "  best alternate >5ms better: %d (%.1f%%)\n"
    (count (fun c -> c.A.Path_store.delta_ms < -5.0))
    (100.0 *. float_of_int (count (fun c -> c.A.Path_store.delta_ms < -5.0)) /. float_of_int n);
  Printf.printf "  within 5ms:                 %d (%.1f%%)\n"
    (count (fun c -> Float.abs c.A.Path_store.delta_ms <= 5.0))
    (100.0 *. float_of_int (count (fun c -> Float.abs c.A.Path_store.delta_ms <= 5.0)) /. float_of_int n);
  Printf.printf "  >5ms worse:                 %d (%.1f%%)\n\n"
    (count (fun c -> c.A.Path_store.delta_ms > 5.0))
    (100.0 *. float_of_int (count (fun c -> c.A.Path_store.delta_ms > 5.0)) /. float_of_int n);

  (* the policy layer: what should actually move? *)
  let projection = Ef.Projection.project snapshot in
  let suggestions = A.Perf_policy.suggest store snapshot ~projection in
  Printf.printf "performance suggestions (capacity-guarded, >=10ms, top %d):\n"
    (List.length suggestions);
  List.iteri
    (fun i s ->
      if i < 10 then
        Format.printf "  %a: %.0fms faster via %a (%s)@."
          Bgp.Prefix.pp s.A.Perf_policy.sug_prefix s.A.Perf_policy.improvement_ms
          Bgp.Peer.pp
          (Bgp.Route.peer s.A.Perf_policy.sug_target)
          (Ef_util.Units.rate_to_string s.A.Perf_policy.rate_bps))
    suggestions;

  (* they convert into the same override machinery capacity uses *)
  let overrides = A.Perf_policy.to_overrides suggestions ~snapshot ~projection in
  Printf.printf "\nas overrides: %d (enforced exactly like capacity detours)\n"
    (List.length overrides);
  match overrides with
  | o :: _ -> Format.printf "  e.g. %a@." Ef.Override.pp o
  | [] -> ()
