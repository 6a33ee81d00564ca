module Bgp = Ef_bgp
module Snapshot = Ef_collector.Snapshot
module Projection = Edge_fabric.Projection

type suggestion = {
  sug_prefix : Bgp.Prefix.t;
  sug_target : Bgp.Route.t;
  improvement_ms : float;
  rate_bps : float;
}

type config = {
  min_improvement_ms : float;
  max_suggestions : int;
  capacity_guard : float;
}

let default_config =
  { min_improvement_ms = 10.0; max_suggestions = 50; capacity_guard = 0.85 }

(* the default configuration, as a DSL rule: the perf stage's knobs are
   part of the same policy language as the import rules, so a program
   can tune capacity and performance steering together *)
let default_policy =
  Ef_policy.params ~name:"perf-defaults"
    [
      Ef_policy.Set_min_improvement_ms default_config.min_improvement_ms;
      Ef_policy.Set_max_suggestions default_config.max_suggestions;
      Ef_policy.Set_perf_guard default_config.capacity_guard;
    ]

let config_of_policy env policy =
  let ap = Ef_policy.alloc_params env policy in
  let d = default_config in
  {
    min_improvement_ms =
      Option.value ap.Ef_policy.ap_min_improvement_ms
        ~default:d.min_improvement_ms;
    max_suggestions =
      Option.value ap.Ef_policy.ap_max_suggestions ~default:d.max_suggestions;
    capacity_guard =
      Option.value ap.Ef_policy.ap_perf_guard ~default:d.capacity_guard;
  }

let take n l = List.filteri (fun i _ -> i < n) l

let suggest ?(config = default_config) store snapshot ~projection =
  let candidates =
    List.filter_map
      (fun (prefix, rate) ->
        match Snapshot.routes snapshot prefix with
        | [] | [ _ ] -> None
        | primary :: alts -> (
            match
              Path_store.compare_paths store ~prefix
                ~primary:(Bgp.Route.peer_id primary)
                ~alternates:(List.map Bgp.Route.peer_id alts)
            with
            | Some cmp when -.cmp.Path_store.delta_ms >= config.min_improvement_ms
              -> (
                let target =
                  List.find_opt
                    (fun r -> Bgp.Route.peer_id r = cmp.Path_store.best_alt_peer)
                    alts
                in
                match target with
                | None -> None
                | Some target -> (
                    match Snapshot.iface_of_route snapshot target with
                    | None -> None
                    | Some iface ->
                        let new_load =
                          Projection.load_bps projection
                            ~iface_id:(Ef_netsim.Iface.id iface)
                          +. rate
                        in
                        if
                          new_load /. Ef_netsim.Iface.capacity_bps iface
                          <= config.capacity_guard
                        then
                          Some
                            {
                              sug_prefix = prefix;
                              sug_target = target;
                              improvement_ms = -.cmp.Path_store.delta_ms;
                              rate_bps = rate;
                            }
                        else None))
            | Some _ | None -> None))
      (Snapshot.prefix_rates snapshot)
  in
  candidates
  |> List.sort (fun a b -> compare b.improvement_ms a.improvement_ms)
  |> take config.max_suggestions

let to_overrides suggestions ~snapshot ~projection =
  List.filter_map
    (fun s ->
      match
        ( Projection.placement_of projection s.sug_prefix,
          Snapshot.iface_of_route snapshot s.sug_target )
      with
      | Some pl, Some to_iface ->
          let ranked = Snapshot.routes snapshot s.sug_prefix in
          let level =
            let rec index i = function
              | [] -> 1
              | r :: rest ->
                  if Bgp.Route.peer_id r = Bgp.Route.peer_id s.sug_target then i
                  else index (i + 1) rest
            in
            index 0 ranked
          in
          Some
            (Edge_fabric.Override.make ~prefix:s.sug_prefix ~target:s.sug_target
               ~from_iface:pl.Projection.iface_id
               ~to_iface:(Ef_netsim.Iface.id to_iface)
               ~preference_level:level ~rate_bps:s.rate_bps)
      | (None | Some _), _ -> None)
    suggestions
