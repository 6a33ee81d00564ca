module Bgp = Ef_bgp

type step_result = {
  active : Override.t list;
  added : Override.t list;
  removed : (Override.t * int) list;
  retargeted : Override.t list;
  kept : Override.t list;
  held : Override.t list;
  deferred_releases : int;
}

type entry = {
  override : Override.t;
  installed_at : int;
}

type t = {
  config : Config.t;
  mutable entries : entry Bgp.Ptrie.t;
}

let create config = { config; entries = Bgp.Ptrie.empty }

let active t =
  Bgp.Ptrie.fold (fun _ e acc -> e.override :: acc) t.entries []

let lookup t prefix =
  Option.map
    (fun e -> e.override.Override.target)
    (Bgp.Ptrie.find prefix t.entries)

let installed_at t prefix =
  Option.map (fun e -> e.installed_at) (Bgp.Ptrie.find prefix t.entries)

let active_count t = Bgp.Ptrie.cardinal t.entries

let ages t ~now_s =
  Bgp.Ptrie.fold
    (fun _ e acc -> (e.override, now_s - e.installed_at) :: acc)
    t.entries []
  |> List.sort (fun (a, _) (b, _) ->
         Bgp.Prefix.compare a.Override.prefix b.Override.prefix)

let iface_by_id proj iface_id =
  List.find_opt
    (fun i -> Ef_netsim.Iface.id i = iface_id)
    (Projection.ifaces proj)

let step ?(trace = Ef_trace.Recorder.noop) t ~time_s ~desired ~preferred =
  let module R = Ef_trace.Recorder in
  let tracing = R.enabled trace in
  let note prefix disposition =
    if tracing then
      R.record_hysteresis trace
        { R.hy_prefix = prefix; hy_disposition = disposition }
  in
  let desired_map =
    List.fold_left
      (fun m (o : Override.t) -> Bgp.Ptrie.add o.Override.prefix o m)
      Bgp.Ptrie.empty desired
  in
  let added = ref [] in
  let removed = ref [] in
  let retargeted = ref [] in
  let kept = ref [] in
  let held = ref [] in
  let deferred = ref 0 in
  let next = ref Bgp.Ptrie.empty in

  (* pass 1: reconcile what is installed *)
  Bgp.Ptrie.iter
    (fun prefix e ->
      let age = time_s - e.installed_at in
      let matured = age >= t.config.Config.min_hold_s in
      match Bgp.Ptrie.find prefix desired_map with
      | Some want when Override.equal want e.override ->
          (* same steering decision: keep the installed one untouched *)
          note prefix (R.Kept { age_s = age });
          kept := e.override :: !kept;
          next := Bgp.Ptrie.add prefix e !next
      | Some want ->
          if matured then begin
            note prefix (R.Retargeted { age_s = age });
            retargeted := want :: !retargeted;
            next :=
              Bgp.Ptrie.add prefix { override = want; installed_at = time_s } !next
          end
          else begin
            note prefix
              (R.Hold_retarget
                 { age_s = age; min_hold_s = t.config.Config.min_hold_s });
            kept := e.override :: !kept;
            held := e.override :: !held;
            next := Bgp.Ptrie.add prefix e !next
          end
      | None ->
          (* allocator no longer needs it; release only when safe *)
          let preferred_util =
            match iface_by_id preferred e.override.Override.from_iface with
            | None -> 0.0
            | Some iface -> Projection.utilization preferred iface
          in
          let release_threshold =
            (* per-iface: release is judged against the threshold of the
               interface the traffic would return to *)
            Config.release_threshold_for t.config
              ~iface_id:e.override.Override.from_iface
          in
          if matured && preferred_util < release_threshold then begin
            note prefix (R.Released { age_s = age });
            removed := (e.override, age) :: !removed
          end
          else begin
            note prefix
              (R.Release_deferred { age_s = age; matured; preferred_util });
            incr deferred;
            kept := e.override :: !kept;
            held := e.override :: !held;
            next := Bgp.Ptrie.add prefix e !next
          end)
    t.entries;

  (* pass 2: install what is new *)
  List.iter
    (fun (o : Override.t) ->
      if not (Bgp.Ptrie.mem o.Override.prefix t.entries) then begin
        note o.Override.prefix R.Installed;
        added := o :: !added;
        next :=
          Bgp.Ptrie.add o.Override.prefix { override = o; installed_at = time_s }
            !next
      end)
    desired;

  t.entries <- !next;
  {
    active = active t;
    added = List.rev !added;
    removed = List.rev !removed;
    retargeted = List.rev !retargeted;
    kept = List.rev !kept;
    held = List.rev !held;
    deferred_releases = !deferred;
  }
