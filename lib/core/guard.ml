module Bgp = Ef_bgp
module Snapshot = Ef_collector.Snapshot

type config = {
  max_detour_fraction : float option;
  max_overrides : int option;
}

let default = { max_detour_fraction = None; max_overrides = None }
let conservative = { max_detour_fraction = Some 0.25; max_overrides = Some 500 }

type violation =
  | Detour_fraction_exceeded of { limit : float; actual : float }
  | Override_count_exceeded of { limit : int; actual : int }
  | Stale_target of Bgp.Prefix.t
  | Target_overloaded of { iface_id : int; utilization : float }

let pp_violation fmt = function
  | Detour_fraction_exceeded { limit; actual } ->
      Format.fprintf fmt "detour fraction %.3f exceeds budget %.3f" actual limit
  | Override_count_exceeded { limit; actual } ->
      Format.fprintf fmt "%d overrides exceed budget %d" actual limit
  | Stale_target p ->
      Format.fprintf fmt "override for %a targets a vanished route" Bgp.Prefix.pp p
  | Target_overloaded { iface_id; utilization } ->
      Format.fprintf fmt "detour target iface %d projected at %.2f" iface_id
        utilization

(* a target is live when its peer still offers a route for the prefix —
   or, for a /24 split child (no routes of its own), for any rated prefix
   covering it: the allocator may have taken the target from the split
   parent's candidates, and the parent can cover a nested rated prefix *)
let target_is_live snapshot (o : Override.t) =
  let offers p =
    List.exists
      (fun r -> Bgp.Route.peer_id r = Override.target_peer_id o)
      (Snapshot.routes snapshot p)
  in
  match Snapshot.routes snapshot o.Override.prefix with
  | [] ->
      List.exists
        (fun (p, _) -> offers p)
        (Snapshot.rated_covers snapshot o.Override.prefix)
  | _ -> offers o.Override.prefix

let detoured_rate snapshot (o : Override.t) =
  match Snapshot.rate_of snapshot o.Override.prefix with
  | 0.0 -> o.Override.rate_bps (* /24 child: fall back to decision-time rate *)
  | r -> r

let detour_fraction snapshot overrides =
  let total = Snapshot.total_rate_bps snapshot in
  if total <= 0.0 then 0.0
  else
    List.fold_left (fun acc o -> acc +. detoured_rate snapshot o) 0.0 overrides
    /. total

let audit ~enforced config snapshot overrides =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (match config.max_detour_fraction with
  | Some limit ->
      let actual = detour_fraction snapshot overrides in
      if actual > limit then add (Detour_fraction_exceeded { limit; actual })
  | None -> ());
  (match config.max_overrides with
  | Some limit ->
      let actual = List.length overrides in
      if actual > limit then add (Override_count_exceeded { limit; actual })
  | None -> ());
  List.iter
    (fun o ->
      if not (target_is_live snapshot o) then add (Stale_target o.Override.prefix))
    overrides;
  (* only blame interfaces that actually receive detours *)
  let targets =
    List.sort_uniq compare (List.map (fun o -> o.Override.to_iface) overrides)
  in
  List.iter
    (fun iface ->
      let id = Ef_netsim.Iface.id iface in
      if List.mem id targets then begin
        let utilization = Projection.utilization enforced iface in
        if utilization > 1.0 then
          add (Target_overloaded { iface_id = id; utilization })
      end)
    (Snapshot.ifaces snapshot);
  List.rev !violations

let clamp ?(trace = Ef_trace.Recorder.noop) config snapshot overrides =
  let live, stale = List.partition (target_is_live snapshot) overrides in
  (* shed the least valuable first: ascending decision-time rate *)
  let ascending =
    List.sort (fun a b -> compare a.Override.rate_bps b.Override.rate_bps) live
  in
  let over_budget kept =
    (match config.max_overrides with
    | Some limit when List.length kept > limit -> true
    | Some _ | None -> false)
    ||
    match config.max_detour_fraction with
    | Some limit -> detour_fraction snapshot kept > limit
    | None -> false
  in
  let rec shed kept dropped =
    match kept with
    | smallest :: rest when over_budget kept -> shed rest (smallest :: dropped)
    | _ -> (kept, dropped)
  in
  let kept, shed_list = shed ascending [] in
  if Ef_trace.Recorder.enabled trace then begin
    let drop reason (o : Override.t) =
      Ef_trace.Recorder.record_guard_drop trace
        {
          Ef_trace.Recorder.gd_prefix = o.Override.prefix;
          gd_reason = reason;
          gd_rate_bps = o.Override.rate_bps;
        }
    in
    List.iter (drop Ef_trace.Recorder.Stale_target) stale;
    List.iter (drop Ef_trace.Recorder.Budget) shed_list
  end;
  (kept, stale @ shed_list)
