module Bgp = Ef_bgp
module Snapshot = Ef_collector.Snapshot
module Units = Ef_util.Units

type placement = {
  placed_prefix : Bgp.Prefix.t;
  rate_bps : float;
  route : Bgp.Route.t;
  iface_id : int;
  overridden : bool;
}

(* Interface loads, the overridden-traffic aggregate and the unroutable
   sum accumulate in integer millibps ([Units.to_millibps]) — the unit the snapshot's total is
   kept in. Integer addition is associative, so adding and subtracting
   single placements — the incremental path — lands on exactly the value
   a cold pass over the same set computes, in any order, and loads plus
   unroutable equal the snapshot's total exactly. Milli-resolution keeps
   quantization (< 1 mbps per prefix) far below anything a threshold can
   see; int64 gives ~9 Pbps of range. *)

type t = {
  ifaces : Ef_netsim.Iface.t list;
  loads : int64 array; (* indexed by iface id, millibps *)
  placements : placement Bgp.Ptrie.t;
  total_m : int64; (* the snapshot's total, millibps *)
  overridden_m : int64; (* millibps on overridden placements *)
  unroutable_m : int64; (* millibps on unplaced prefixes *)
  unplaced : float Bgp.Ptrie.t; (* unplaced prefix -> rate *)
  stale : Bgp.Prefix.t list; (* ascending prefix order *)
}

let max_iface_id ifaces =
  List.fold_left (fun acc i -> max acc (Ef_netsim.Iface.id i)) (-1) ifaces

(* Decide one prefix's placement exactly the way the full pass does:
   honour an override only if that neighbor still offers a candidate; a
   stale override falls back to the preferred route and is reported. A
   chosen route whose interface does not resolve leaves the prefix
   unplaced. Returns [(Some (route, iface_id, overridden) | None,
   is_stale)]. Shared by the cold pass and [Working.apply_dirty] so the
   two paths cannot diverge. *)
let decide ~overrides ~candidates snapshot prefix =
  let route, overridden, is_stale =
    match overrides prefix with
    | Some want -> (
        let still_valid =
          List.find_opt
            (fun r -> Bgp.Route.peer_id r = Bgp.Route.peer_id want)
            candidates
        in
        match still_valid with
        | Some r -> (Some r, true, false)
        | None -> (
            match candidates with
            | [] -> (None, false, true)
            | r :: _ -> (Some r, false, true)))
    | None -> (
        match candidates with
        | [] -> (None, false, false)
        | r :: _ -> (Some r, false, false))
  in
  let placed =
    Option.bind route (fun route ->
        Option.map
          (fun iface -> (route, Ef_netsim.Iface.id iface, overridden))
          (Snapshot.iface_of_route snapshot route))
  in
  (placed, is_stale)

(* --- the cold pass ------------------------------------------------------

   Order-independent: loads and the millibps aggregates are integer sums,
   and the placement, unplaced and stale tries have canonical structure
   (same bindings => same shape). So the pass walks the snapshot's rate
   trie in whatever order is cheapest. *)

let project ?(overrides = fun _ -> None) snapshot =
  let ifaces = Snapshot.ifaces snapshot in
  let loads = Array.make (max_iface_id ifaces + 1) 0L in
  let overridden_m = ref 0L and unroutable_m = ref 0L in
  let placements = ref Bgp.Ptrie.empty and unplaced = ref Bgp.Ptrie.empty in
  let stale = ref Bgp.Ptrie.empty in
  Snapshot.iter_rates snapshot (fun prefix rate ->
      let placed, is_stale =
        decide ~overrides ~candidates:(Snapshot.routes snapshot prefix)
          snapshot prefix
      in
      if is_stale then stale := Bgp.Ptrie.add prefix () !stale;
      let m = Units.to_millibps rate in
      match placed with
      | None ->
          unplaced := Bgp.Ptrie.add prefix rate !unplaced;
          unroutable_m := Int64.add !unroutable_m m
      | Some (route, iface_id, overridden) ->
          loads.(iface_id) <- Int64.add loads.(iface_id) m;
          if overridden then overridden_m := Int64.add !overridden_m m;
          placements :=
            Bgp.Ptrie.add prefix
              { placed_prefix = prefix; rate_bps = rate; route; iface_id;
                overridden }
              !placements);
  {
    ifaces;
    loads;
    placements = !placements;
    total_m = Snapshot.total_rate_millibps snapshot;
    overridden_m = !overridden_m;
    unroutable_m = !unroutable_m;
    unplaced = !unplaced;
    stale = Bgp.Ptrie.keys !stale;
  }

let load_millibps t ~iface_id =
  if iface_id < 0 || iface_id >= Array.length t.loads then 0L
  else t.loads.(iface_id)

let load_bps t ~iface_id = Units.of_millibps (load_millibps t ~iface_id)

let utilization t iface =
  load_bps t ~iface_id:(Ef_netsim.Iface.id iface)
  /. Ef_netsim.Iface.capacity_bps iface

let overloaded_by t ~threshold_of =
  t.ifaces
  |> List.filter_map (fun iface ->
         let u = utilization t iface in
         if u > threshold_of (Ef_netsim.Iface.id iface) then Some (iface, u)
         else None)
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let overloaded t ~threshold = overloaded_by t ~threshold_of:(fun _ -> threshold)

let placements t =
  Bgp.Ptrie.fold (fun _ pl acc -> pl :: acc) t.placements []

(* Total order: rate descending, then prefix ascending. Rate alone left
   ties to fold order, which made allocator decisions (and golden traces)
   depend on trie shape; the prefix tiebreak makes them byte-stable. *)
let compare_placement a b =
  let c = Float.compare b.rate_bps a.rate_bps in
  if c <> 0 then c else Bgp.Prefix.compare a.placed_prefix b.placed_prefix

let placements_on t ~iface_id =
  placements t
  |> List.filter (fun pl -> pl.iface_id = iface_id)
  |> List.sort compare_placement

let placement_of t prefix = Bgp.Ptrie.find prefix t.placements

let move t prefix ~to_route ~to_iface =
  match Bgp.Ptrie.find prefix t.placements with
  | None -> invalid_arg "Projection.move: prefix has no placement"
  | Some pl ->
      let loads = Array.copy t.loads in
      let m = Units.to_millibps pl.rate_bps in
      loads.(pl.iface_id) <- Int64.sub loads.(pl.iface_id) m;
      loads.(to_iface) <- Int64.add loads.(to_iface) m;
      let overridden_m =
        if pl.overridden then t.overridden_m else Int64.add t.overridden_m m
      in
      let pl' = { pl with route = to_route; iface_id = to_iface; overridden = true } in
      { t with loads; overridden_m; placements = Bgp.Ptrie.add prefix pl' t.placements }

let add_placement t ~prefix ~rate_bps ~route ~iface_id ~overridden =
  let loads = Array.copy t.loads in
  let m = Units.to_millibps rate_bps in
  loads.(iface_id) <- Int64.add loads.(iface_id) m;
  let overridden_m =
    if overridden then Int64.add t.overridden_m m else t.overridden_m
  in
  let pl = { placed_prefix = prefix; rate_bps; route; iface_id; overridden } in
  { t with loads; overridden_m; placements = Bgp.Ptrie.add prefix pl t.placements }

let remove_placement t prefix =
  match Bgp.Ptrie.find prefix t.placements with
  | None -> t
  | Some pl ->
      let loads = Array.copy t.loads in
      let m = Units.to_millibps pl.rate_bps in
      loads.(pl.iface_id) <- Int64.sub loads.(pl.iface_id) m;
      let overridden_m =
        if pl.overridden then Int64.sub t.overridden_m m else t.overridden_m
      in
      { t with loads; overridden_m; placements = Bgp.Ptrie.remove prefix t.placements }

let total_bps t = Units.of_millibps t.total_m
let overridden_bps t = Units.of_millibps t.overridden_m
let unroutable_bps t = Units.of_millibps t.unroutable_m
let unroutable_millibps t = t.unroutable_m
let stale_overrides t = t.stale
let ifaces t = t.ifaces

let iface_loads t =
  List.map (fun iface -> (iface, load_bps t ~iface_id:(Ef_netsim.Iface.id iface))) t.ifaces

(* ---------------------------------------------------------------------- *)
(* Working view: the allocator's mutable scratch projection.              *)
(* ---------------------------------------------------------------------- *)

module Working = struct
  module PSet = Set.Make (struct
    type nonrec t = placement

    let compare = compare_placement
  end)

  type proj = t

  type t = {
    mutable w_ifaces : Ef_netsim.Iface.t list;
    mutable w_loads : int64 array; (* millibps, updated in place *)
    mutable w_placements : placement Bgp.Ptrie.t;
    mutable w_by_iface : PSet.t option array;
        (* iface id -> its placements in (rate desc, prefix) order; [None]
           until the first ordered read of that interface (or after
           [retain_slots] drops it), current after it. [copy] shares built
           slots, so they ride a retained image into the next cycle.
           Replaced (with w_loads) only when an added interface grows the
           id universe, keeping every built slot *)
    mutable w_slot_builds : int; (* slots built since opened or copied *)
    mutable w_total : int64;
    mutable w_overridden : int64;
    mutable w_unroutable : int64;
    mutable w_unplaced : float Bgp.Ptrie.t;
    mutable w_stale : unit Bgp.Ptrie.t;
    mutable w_touched : int list; (* iface ids with load changes, undrained *)
  }

  (* The per-iface index is built lazily: most cycles relieve nothing, and
     keeping a 200k-element set current on every warm patch cost more than
     the patch's trie work. So opening a view indexes nothing; a caller
     that relieves the same interface cycle after cycle keeps just that
     slot with [retain_slots]. *)
  let of_projection (p : proj) =
    {
      w_ifaces = p.ifaces;
      w_loads = Array.copy p.loads;
      w_placements = p.placements;
      w_by_iface = Array.make (Array.length p.loads) None;
      w_slot_builds = 0;
      w_total = p.total_m;
      w_overridden = p.overridden_m;
      w_unroutable = p.unroutable_m;
      w_unplaced = p.unplaced;
      w_stale = Bgp.Ptrie.of_list (List.map (fun p -> (p, ())) p.stale);
      w_touched = [];
    }

  let copy w =
    {
      w with
      w_loads = Array.copy w.w_loads;
      w_by_iface = Array.copy w.w_by_iface;
      w_slot_builds = 0;
      w_touched = [];
    }

  let seal w : proj =
    {
      ifaces = w.w_ifaces;
      loads = Array.copy w.w_loads;
      placements = w.w_placements;
      total_m = w.w_total;
      overridden_m = w.w_overridden;
      unroutable_m = w.w_unroutable;
      unplaced = w.w_unplaced;
      stale = Bgp.Ptrie.keys w.w_stale;
    }

  let load_bps w ~iface_id =
    if iface_id < 0 || iface_id >= Array.length w.w_loads then 0.0
    else Units.of_millibps w.w_loads.(iface_id)

  let touch w iface_id = w.w_touched <- iface_id :: w.w_touched

  let drain_touched w =
    let t = w.w_touched in
    w.w_touched <- [];
    t

  let placement_of w prefix = Bgp.Ptrie.find prefix w.w_placements

  (* The interface's slot, built on first read by sorting its placements
     once ([PSet.of_list] sorts and then builds the balanced set in one
     linear pass — one [PSet.add] per placement costs more). *)
  let ordered w iface_id =
    if iface_id < 0 || iface_id >= Array.length w.w_by_iface then PSet.empty
    else
      match w.w_by_iface.(iface_id) with
      | Some s -> s
      | None ->
          let s =
            PSet.of_list
              (Bgp.Ptrie.fold
                 (fun _ pl acc -> if pl.iface_id = iface_id then pl :: acc else acc)
                 w.w_placements [])
          in
          w.w_by_iface.(iface_id) <- Some s;
          w.w_slot_builds <- w.w_slot_builds + 1;
          s

  let retain_slots w ~keep =
    Array.iteri
      (fun iface_id _ ->
        if keep iface_id then ignore (ordered w iface_id)
        else w.w_by_iface.(iface_id) <- None)
      w.w_by_iface

  let indexed w =
    List.filter
      (fun iface_id -> Option.is_some w.w_by_iface.(iface_id))
      (List.init (Array.length w.w_by_iface) Fun.id)

  let slot_builds w = w.w_slot_builds

  let placements_on w ~iface_id = PSet.elements (ordered w iface_id)
  let placements_seq w ~iface_id = PSet.to_seq (ordered w iface_id)

  (* built slots follow every mutation; unbuilt ones cost nothing *)
  let index_add w pl =
    match w.w_by_iface.(pl.iface_id) with
    | Some s -> w.w_by_iface.(pl.iface_id) <- Some (PSet.add pl s)
    | None -> ()

  let index_remove w pl =
    match w.w_by_iface.(pl.iface_id) with
    | Some s -> w.w_by_iface.(pl.iface_id) <- Some (PSet.remove pl s)
    | None -> ()

  (* A placement's contribution: its rate on its interface's load and,
     when overridden, on the overridden aggregate, plus its entry in a
     built index slot. Every placement change unaccounts the old record
     and accounts the new one, so loads move by exact integer amounts. *)
  let account w pl =
    let m = Units.to_millibps pl.rate_bps in
    w.w_loads.(pl.iface_id) <- Int64.add w.w_loads.(pl.iface_id) m;
    if pl.overridden then w.w_overridden <- Int64.add w.w_overridden m;
    touch w pl.iface_id;
    index_add w pl

  let unaccount w pl =
    let m = Units.to_millibps pl.rate_bps in
    w.w_loads.(pl.iface_id) <- Int64.sub w.w_loads.(pl.iface_id) m;
    if pl.overridden then w.w_overridden <- Int64.sub w.w_overridden m;
    touch w pl.iface_id;
    index_remove w pl

  (* [prefix]'s placement becomes [next] ([None]: none) in one descent of
     the placement trie; the one it had is unaccounted first *)
  let swap w prefix next =
    let prev = ref None in
    w.w_placements <-
      Bgp.Ptrie.update prefix
        (fun o ->
          prev := o;
          next)
        w.w_placements;
    Option.iter (unaccount w) !prev;
    Option.iter (account w) next

  let move w prefix ~to_route ~to_iface =
    let moved = ref None in
    w.w_placements <-
      Bgp.Ptrie.update prefix
        (Option.map (fun pl ->
             let pl' =
               { pl with route = to_route; iface_id = to_iface; overridden = true }
             in
             moved := Some (pl, pl');
             pl'))
        w.w_placements;
    match !moved with
    | None -> invalid_arg "Projection.Working.move: prefix has no placement"
    | Some (pl, pl') ->
        unaccount w pl;
        account w pl'

  let remove_placement w prefix = swap w prefix None

  let add_placement w ~prefix ~rate_bps ~route ~iface_id ~overridden =
    swap w prefix
      (Some { placed_prefix = prefix; rate_bps; route; iface_id; overridden })

  let apply_dirty w ~snapshot ?(overrides = fun _ -> None) ~dirty () =
    (* One pass: each dirty prefix is re-decided with the cold pass's rule
       (if still rated), then takes its new place in the unplaced pool,
       the stale set and the placement trie — one descent of each. Loads
       and the unroutable sum move by each prefix's exact integer
       contribution, so nothing is ever re-summed. *)
    List.iter
      (fun (ch : Snapshot.change) ->
        let prefix = ch.Snapshot.ch_prefix in
        let next, unplaced, is_stale =
          match ch.Snapshot.ch_new_rate with
          | None -> (None, None, false)
          | Some rate -> (
              let placed, is_stale =
                decide ~overrides ~candidates:(Snapshot.routes snapshot prefix)
                  snapshot prefix
              in
              match placed with
              | None -> (None, Some rate, is_stale)
              | Some (route, iface_id, overridden) ->
                  ( Some
                      { placed_prefix = prefix; rate_bps = rate; route;
                        iface_id; overridden },
                    None,
                    is_stale ))
        in
        w.w_unplaced <-
          Bgp.Ptrie.update prefix
            (fun o ->
              let m = Option.fold ~none:0L ~some:Units.to_millibps in
              w.w_unroutable <-
                Int64.add (Int64.sub w.w_unroutable (m o)) (m unplaced);
              unplaced)
            w.w_unplaced;
        w.w_stale <-
          Bgp.Ptrie.update prefix
            (fun _ -> if is_stale then Some () else None)
            w.w_stale;
        swap w prefix next)
      dirty;
    w.w_total <- Snapshot.total_rate_millibps snapshot;
    w.w_ifaces <- Snapshot.ifaces snapshot

  (* --- interface-set deltas -------------------------------------------

     The affected set of an interface change is exact, not heuristic,
     because [decide] follows only the head candidate (or a
     still-valid override) and a placement whose interface does not
     resolve goes unplaced rather than falling through to the next
     candidate:

     - a REMOVED interface can only change prefixes currently placed on
       it (their chosen route stops resolving) — found by one scan of
       the placement trie;
     - an ADDED interface can only change prefixes currently unplaced
       (a placed prefix's chosen route and its resolution are
       untouched) — the unplaced pool is re-decided;
     - a CAPACITY-only change affects nothing here: placement ignores
       capacity, and thresholds re-derive from the snapshot every
       allocator run.

     Each op builds synthetic dirty records carrying the image's own
     rates (rate churn arrives separately through the regular dirty
     list) and delegates to [apply_dirty], so the decision rule is the
     cold pass's by construction and the result stays byte-identical. *)

  let ensure_width w width =
    if width > Array.length w.w_loads then begin
      let loads = Array.make width 0L in
      Array.blit w.w_loads 0 loads 0 (Array.length w.w_loads);
      let by = Array.make width None in
      Array.blit w.w_by_iface 0 by 0 (Array.length w.w_by_iface);
      w.w_loads <- loads;
      w.w_by_iface <- by
    end

  let change_of ~prefix ~rate =
    {
      Snapshot.ch_prefix = prefix;
      ch_old_rate = Some rate;
      ch_new_rate = Some rate;
      ch_routes = false;
    }

  let remove_iface w ~snapshot ?overrides ~iface_id () =
    ensure_width w (Snapshot.max_iface_id snapshot + 1);
    (* every placement on the interface leaves it: drop its slot whole
       rather than draining it one [PSet.remove] at a time *)
    if iface_id >= 0 && iface_id < Array.length w.w_by_iface then
      w.w_by_iface.(iface_id) <- None;
    let dirty =
      Bgp.Ptrie.fold
        (fun _ pl acc ->
          if pl.iface_id = iface_id then
            change_of ~prefix:pl.placed_prefix ~rate:pl.rate_bps :: acc
          else acc)
        w.w_placements []
    in
    apply_dirty w ~snapshot ?overrides ~dirty ()

  let add_iface w ~snapshot ?overrides ~iface_id:_ () =
    ensure_width w (Snapshot.max_iface_id snapshot + 1);
    let dirty =
      Bgp.Ptrie.fold
        (fun prefix rate acc -> change_of ~prefix ~rate :: acc)
        w.w_unplaced []
    in
    apply_dirty w ~snapshot ?overrides ~dirty ()

  let apply_iface_delta w ~snapshot ?overrides ~delta () =
    ensure_width w (Snapshot.max_iface_id snapshot + 1);
    let added = ref false in
    List.iter
      (fun (ic : Snapshot.iface_change) ->
        match (ic.Snapshot.ic_old_capacity, ic.Snapshot.ic_new_capacity) with
        | Some _, None ->
            remove_iface w ~snapshot ?overrides ~iface_id:ic.Snapshot.ic_id ()
        | None, Some _ -> added := true
        | Some _, Some _ | None, None -> ())
      delta;
    (* one unplaced-pool pass covers every added interface (and is
       idempotent for prefixes the removals just unplaced: re-deciding
       with the same inputs retracts and re-adds the same set entry) *)
    if !added then add_iface w ~snapshot ?overrides ~iface_id:(-1) ()
end

(* A working image of [t] with only [keys] re-decided: each key's dirty
   record carries its rate in [snapshot] (none when unrated), so
   [apply_dirty] places, unplaces or drops it by the cold pass's rule. *)
let redecide t snapshot ~overrides keys =
  let img = Working.of_projection t in
  let dirty =
    List.map
      (fun prefix ->
        let r = Snapshot.rate_of snapshot prefix in
        let r = if r > 0.0 then Some r else None in
        { Snapshot.ch_prefix = prefix; ch_old_rate = r; ch_new_rate = r;
          ch_routes = false })
      keys
  in
  Working.apply_dirty img ~snapshot ~overrides ~dirty ();
  Working.seal img
