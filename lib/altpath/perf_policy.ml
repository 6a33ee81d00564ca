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

let suggest ?(config = default_config) store snapshot ~projection =
  (* every measured-better move with a known target interface, in
     prefix order; the capacity guard is applied below, cumulatively *)
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
                | Some target ->
                    Option.map
                      (fun iface ->
                        ( {
                            sug_prefix = prefix;
                            sug_target = target;
                            improvement_ms = -.cmp.Path_store.delta_ms;
                            rate_bps = rate;
                          },
                          iface ))
                      (Snapshot.iface_of_route snapshot target))
            | Some _ | None -> None))
      (Snapshot.prefix_rates snapshot)
  in
  (* largest improvement first; a move is accepted only if the target's
     projected load plus every rate already accepted onto it stays under
     the guard, so the cycle's suggestions together never breach it *)
  let accepted_bps = Hashtbl.create 8 in
  let rec accept n acc = function
    | [] -> List.rev acc
    | _ when n >= config.max_suggestions -> List.rev acc
    | (s, iface) :: rest ->
        let id = Ef_netsim.Iface.id iface in
        let moved =
          Option.value (Hashtbl.find_opt accepted_bps id) ~default:0.0
        in
        let new_load =
          Projection.load_bps projection ~iface_id:id +. moved +. s.rate_bps
        in
        if new_load /. Ef_netsim.Iface.capacity_bps iface <= config.capacity_guard
        then begin
          Hashtbl.replace accepted_bps id (moved +. s.rate_bps);
          accept (n + 1) (s :: acc) rest
        end
        else accept n acc rest
  in
  candidates
  |> List.stable_sort (fun (a, _) (b, _) ->
         compare b.improvement_ms a.improvement_ms)
  |> accept 0 []

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
