(* Peer failure drill: a private interconnect dies mid-peak.

   Run with:  dune exec examples/peer_failure.exe

   At 20:10 the busiest private peer's BGP session drops for 20 minutes.
   BGP itself fails the traffic over to the next-best routes (that part
   needs no controller); what the controller adds is keeping the
   {e failover targets} under their thresholds while absorbing the extra
   load, and cleanly releasing/re-installing overrides around the
   topology change — including discarding any override that pointed at
   the dead peer (a stale target). *)

module Bgp = Ef_bgp
module N = Ef_netsim
module S = Ef_sim
module Units = Ef_util.Units

let scenario = N.Scenario.pop_a

let () =
  let world = N.Topo_gen.generate scenario.N.Scenario.topo in
  let pop = world.N.Topo_gen.pop in
  (* the busiest private peer = the one whose interface carries the most
     preferred traffic at peak; weight of its own AS is a good proxy *)
  let victim =
    List.find
      (fun p -> Bgp.Peer.kind p = Bgp.Peer.Private_peer)
      (N.Pop.peers pop)
  in
  let victim_iface = N.Pop.iface_of_peer pop ~peer_id:(Bgp.Peer.id victim) in
  Format.printf "Victim: %a on %s (%s)@." Bgp.Peer.pp victim
    (N.Iface.name victim_iface)
    (Units.rate_to_string (N.Iface.capacity_bps victim_iface));

  let start = 20 * 3600 in
  let down_at = start + 600 and up_at = start + 1800 in
  (* the victim is a PNI carrying only its peer, so the session outage is
     a link outage: one flap window, no onset jitter at period 4 *)
  let outage =
    Ef_fault.Plan.Link_flap
      {
        iface_id = N.Iface.id victim_iface;
        from_s = down_at;
        until_s = up_at;
        period_s = 4;
        down_s = up_at - down_at;
      }
  in
  let config =
    S.Engine.make_config ~cycle_s:60 ~duration_s:3600 ~start_s:start ~seed:21
      ~faults:(Ef_fault.Plan.make [ outage ])
      ()
  in
  let engine = S.Engine.create ~config scenario in
  Printf.printf "%-7s %-14s %-11s %-10s %-9s %s\n" "time" "victim-load"
    "max-util" "overrides" "dropped" "note";
  for _ = 1 to 60 do
    let row = S.Engine.step engine in
    let t = row.S.Metrics.row_time_s in
    let victim_load, max_util =
      List.fold_left
        (fun (vl, mx) u ->
          let util = u.S.Metrics.actual_bps /. u.S.Metrics.capacity_bps in
          ( (if u.S.Metrics.u_iface_id = N.Iface.id victim_iface then
               u.S.Metrics.actual_bps
             else vl),
            Float.max mx util ))
        (0.0, 0.0) row.S.Metrics.ifaces
    in
    let note =
      if t = down_at then "<- session DOWN"
      else if t = up_at then "<- session UP"
      else ""
    in
    if t mod 300 = 0 || note <> "" || (t > down_at && t < down_at + 240) then
      Printf.printf "%-7s %-14s %-11.2f %-10d %-9s %s\n"
        (Format.asprintf "%a" Units.pp_time_of_day t)
        (Units.rate_to_string victim_load)
        max_util row.S.Metrics.overrides_active
        (Units.rate_to_string row.S.Metrics.dropped_bps)
        note
  done;
  let m = S.Engine.metrics engine in
  Printf.printf
    "\nthrough the outage: %s dropped in total; peak interface utilization %.2f\n"
    (Units.rate_to_string
       (S.Metrics.total_dropped m `Actual /. float_of_int (S.Metrics.cycle_count m)))
    (List.fold_left
       (fun acc (_, u) -> Float.max acc u)
       0.0
       (S.Metrics.peak_utilization m `Actual))
