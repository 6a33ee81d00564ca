module Bgp = Ef_bgp
module Snapshot = Ef_collector.Snapshot
module Iface = Ef_netsim.Iface
module Bitset = Ef_util.Bitset
module Trace = Ef_trace.Recorder

let log_src =
  Logs.Src.create "edge_fabric.allocator" ~doc:"Edge Fabric allocator"

module Log = (val Logs.src_log log_src)

type result = {
  overrides : Override.t list;
  before : Projection.t;
  final : Projection.t;
  residual : (Iface.t * float) list;
  moves_considered : int;
  splits : int;
  split_keys : Bgp.Prefix.t list;
}

(* /24 children inherit the parent's candidate routes; this table lets a
   child placement find them. *)
type state = {
  config : Config.t;
  thr : float array; (* iface id -> effective overload threshold *)
  snapshot : Snapshot.t;
  work : Projection.Working.t; (* mutated in place through the relief loop *)
  decide_proj : Projection.t; (* stale view used when iterative = false *)
  mutable overrides : Override.t list;
  mutable moves : int;
  mutable splits : int;
  split_parent : (Bgp.Prefix.t, Bgp.Prefix.t) Hashtbl.t;
  gave_up : Bitset.t; (* iface ids we cannot relieve further *)
  initially_over : Bitset.t; (* overloaded in the original projection *)
  over : Bitset.t; (* overloaded now, kept current from touched ifaces *)
  pos_of_iface : int array; (* iface id -> rank in the snapshot's list *)
  trace : Trace.t;
}

let candidates st prefix =
  let key =
    Option.value (Hashtbl.find_opt st.split_parent prefix) ~default:prefix
  in
  Snapshot.routes st.snapshot key

let capacity_of st iface_id =
  match Snapshot.iface_by_id st.snapshot iface_id with
  | Some i -> Iface.capacity_bps i
  | None -> invalid_arg "Allocator: unknown interface id"

let headroom st iface_id =
  (* room below the threshold on [iface_id], per the view the config says
     to decide against *)
  let load =
    if st.config.Config.iterative then
      Projection.Working.load_bps st.work ~iface_id
    else Projection.load_bps st.decide_proj ~iface_id
  in
  (capacity_of st iface_id *. st.thr.(iface_id)) -. load

(* Membership in [st.over] for one interface, from its current working
   load. Same predicate as [Projection.overloaded]. *)
let refresh_over st iface_id =
  match Snapshot.iface_by_id st.snapshot iface_id with
  | None -> ()
  | Some iface ->
      let u =
        Projection.Working.load_bps st.work ~iface_id
        /. Iface.capacity_bps iface
      in
      Bitset.set st.over iface_id (u > st.thr.(iface_id))

let refresh_touched st =
  List.iter (refresh_over st) (Projection.Working.drain_touched st.work)

(* The worst eligible overloaded interface: highest utilization, ties to
   the earlier interface in snapshot order — exactly the head of the
   sorted-and-filtered list the loop used to rebuild per iteration, found
   by scanning only the maintained overload set. *)
let pick_overloaded st =
  let best = ref None in
  Bitset.iter
    (fun id ->
      if
        (not (Bitset.mem st.gave_up id))
        && (st.config.Config.iterative || Bitset.mem st.initially_over id)
      then
        let u =
          Projection.Working.load_bps st.work ~iface_id:id
          /. capacity_of st id
        in
        match !best with
        | Some (_, bu, _) when bu > u -> ()
        | Some (_, bu, bpos) when bu = u && bpos < st.pos_of_iface.(id) -> ()
        | _ -> best := Some (id, u, st.pos_of_iface.(id)))
    st.over;
  match !best with Some (id, _, _) -> Some id | None -> None

(* The best detour for one placement: the highest-ranked alternate route
   on a different interface with room for the whole rate. Also returns the
   candidate verdicts (empty unless tracing — the list is only built when
   the recorder is live, keeping the disabled path allocation-free). *)
let find_target st (pl : Projection.placement) =
  let tracing = Trace.enabled st.trace in
  let verdicts = ref [] in
  let note level route iface_id verdict =
    if tracing then
      verdicts :=
        {
          Trace.cand_level = level;
          cand_peer_id = Bgp.Route.peer_id route;
          cand_iface_id = iface_id;
          cand_verdict = verdict;
        }
        :: !verdicts
  in
  let ranked = candidates st pl.Projection.placed_prefix in
  let rec go level = function
    | [] -> None
    | route :: rest -> (
        st.moves <- st.moves + 1;
        match Snapshot.iface_of_route st.snapshot route with
        | None ->
            note level route (-1) Trace.No_iface;
            go (level + 1) rest
        | Some iface ->
            let iface_id = Iface.id iface in
            if iface_id = pl.Projection.iface_id then begin
              note level route iface_id Trace.Same_iface;
              go (level + 1) rest
            end
            else
              let room = headroom st iface_id in
              if room >= pl.Projection.rate_bps then begin
                note level route iface_id Trace.Chosen;
                Some (route, iface_id, level)
              end
              else begin
                note level route iface_id
                  (Trace.No_headroom
                     {
                       needed_bps = pl.Projection.rate_bps;
                       headroom_bps = room;
                     });
                go (level + 1) rest
              end)
  in
  let target = go 0 ranked in
  (target, List.rev !verdicts)

(* Split one placement into /24 children carrying equal shares. A /24
   that already holds its own placement (a rated more-specific) is its
   own flow: it keeps its placement and takes no share. *)
let split_placement st (pl : Projection.placement) =
  let prefix = pl.Projection.placed_prefix in
  let parent_key =
    Option.value (Hashtbl.find_opt st.split_parent prefix) ~default:prefix
  in
  let children =
    List.filter
      (fun c -> Option.is_none (Projection.Working.placement_of st.work c))
      (Bgp.Prefix.subnets prefix 24)
  in
  match children with
  | [] | [ _ ] -> false
  | _ ->
      let share = pl.Projection.rate_bps /. float_of_int (List.length children) in
      Projection.Working.remove_placement st.work prefix;
      List.iter
        (fun child ->
          Hashtbl.replace st.split_parent child parent_key;
          Projection.Working.add_placement st.work ~prefix:child ~rate_bps:share
            ~route:pl.Projection.route ~iface_id:pl.Projection.iface_id
            ~overridden:false)
        children;
      st.splits <- st.splits + 1;
      if Trace.enabled st.trace then
        Trace.record_attempt st.trace
          {
            Trace.at_prefix = prefix;
            at_from_iface = pl.Projection.iface_id;
            at_rate_bps = pl.Projection.rate_bps;
            at_candidates = [];
            at_outcome = Trace.Split { children = List.length children };
          };
      true

(* One relief attempt on [iface_id]: move one placement (possibly after a
   split) or declare the interface stuck. Returns true if progress.
   Placements are visited biggest first, lazily: the loop usually stops at
   the first movable one, so on a dfz-scale interface (hundreds of
   thousands of placements) materializing the ordered list per attempt
   would dominate the cycle. The sequence walks the persistent set as of
   the call, so a successful move (which replaces the set) never
   invalidates it. *)
let relieve_once st iface_id =
  let placements =
    Projection.Working.placements_seq st.work ~iface_id
    |> Seq.filter (fun pl -> not pl.Projection.overridden)
  in
  let record_attempt pl candidates outcome =
    if Trace.enabled st.trace then
      Trace.record_attempt st.trace
        {
          Trace.at_prefix = pl.Projection.placed_prefix;
          at_from_iface = iface_id;
          at_rate_bps = pl.Projection.rate_bps;
          at_candidates = candidates;
          at_outcome = outcome;
        }
  in
  let try_move pl =
    match find_target st pl with
    | None, candidates ->
        record_attempt pl candidates Trace.No_target;
        false
    | Some (route, to_iface, level), candidates ->
        record_attempt pl candidates
          (Trace.Moved { to_iface; peer_id = Bgp.Route.peer_id route; level });
        Projection.Working.move st.work pl.Projection.placed_prefix
          ~to_route:route ~to_iface;
        st.overrides <-
          Override.make ~prefix:pl.Projection.placed_prefix ~target:route
            ~from_iface:iface_id ~to_iface ~preference_level:level
            ~rate_bps:pl.Projection.rate_bps
          :: st.overrides;
        true
  in
  let rec first_movable seq =
    match seq () with
    | Seq.Nil -> false
    | Seq.Cons (pl, rest) -> try_move pl || first_movable rest
  in
  if first_movable placements then true
  else
    match st.config.Config.granularity with
    | Config.Bgp_prefix -> false
    | Config.Split_24 -> (
        (* split the first splittable placement (in visiting order) and
           retry next round; failed moves above mutated nothing, so the
           captured sequence is still the current population *)
        let splittable =
          Seq.find
            (fun pl ->
              Bgp.Prefix.length pl.Projection.placed_prefix < 24
              && List.length (candidates st pl.Projection.placed_prefix) > 1)
            placements
        in
        match splittable with
        | None -> false
        | Some pl -> split_placement st pl)

type warm = {
  warm_image : Projection.Working.t;
      (* the pre-relief working view of [warm_snapshot]: BGP-preferred
         placement, no allocator moves applied, with the ordered slots of
         exactly the interfaces overloaded in it. Never mutated — each use
         copies it first. *)
  warm_snapshot : Snapshot.t;
}

(* Warm start needs only the delta link: a linked snapshot's recorded
   iface_changes are exact, and [run_warm] patches the image over them
   (removals re-place their placements, additions re-decide the unplaced
   pool) before the regular dirty pass — an interface add/remove is an
   incremental event now, not a cold restart. *)
let warm_valid ?warm snapshot =
  match warm with
  | Some w -> Snapshot.linked w.warm_snapshot snapshot
  | None -> false

let warm_snapshot w = w.warm_snapshot
let warm_image w = Projection.Working.copy w.warm_image

(* Per-iface thresholds, resolved once per run into an array so the hot
   path stays a single load (and is untouched when the list is empty). An
   entry whose id falls outside the snapshot's interface universe is a
   misconfiguration the operator should see, not a silent drop. *)
let thresholds ~reg ~config snapshot =
  let universe = Snapshot.max_iface_id snapshot + 1 in
  let thr = Array.make universe config.Config.overload_threshold in
  List.iter
    (fun (id, th) ->
      if id >= 0 && id < universe then thr.(id) <- th
      else begin
        Log.warn (fun m ->
            m
              "iface_thresholds entry for interface %d (%.3f) ignored: id \
               outside the snapshot's interface universe [0, %d)"
              id th universe);
        Ef_obs.Counter.inc
          (Ef_obs.Registry.counter reg "allocator.iface_thresholds.dropped")
      end)
    config.Config.iface_thresholds;
  thr

(* The relief loop proper, from a pre-relief projection: pure in
   (before, work, snapshot, config), so reaching the same pre-relief image
   incrementally or from scratch yields byte-identical results.
   [initially_over] holds the interfaces overloaded in [before] under
   [thr]. *)
let run_core ~config ~trace ~thr ~initially_over ~before ~work snapshot =
  let universe = Array.length thr in
  let pos_of_iface = Array.make universe max_int in
  List.iteri
    (fun pos iface -> pos_of_iface.(Iface.id iface) <- pos)
    (Snapshot.ifaces snapshot);
  let st =
    {
      config;
      thr;
      snapshot;
      work;
      decide_proj = before;
      overrides = [];
      moves = 0;
      splits = 0;
      split_parent = Hashtbl.create 64;
      gave_up = Bitset.create universe;
      initially_over;
      over = Bitset.create universe;
      pos_of_iface;
      trace;
    }
  in
  (* single-pass (ablation A1) only ever relieves the interfaces that were
     overloaded in the original projection: it does not react to overloads
     its own detours create — that reaction is exactly what the iterative
     re-projection adds *)
  Bitset.iter (Bitset.add st.over) initially_over;
  let progress = ref true in
  while !progress do
    progress := false;
    match pick_overloaded st with
    | None -> ()
    | Some iface_id ->
        if relieve_once st iface_id then begin
          progress := true;
          refresh_touched st
        end
        else Bitset.add st.gave_up iface_id
  done;
  let final = Projection.Working.seal st.work in
  (* /24 splitting can move many sibling children to the same target;
     re-aggregate them into covering CIDR blocks so enforcement announces
     the minimum number of routes (aggregation only ever merges complete
     sibling pairs, so children left behind block the merge — safe) *)
  let aggregate_children children =
    let groups = Hashtbl.create 8 in
    List.iter
      (fun o ->
        let key =
          ( Override.target_peer_id o,
            o.Override.from_iface,
            o.Override.to_iface,
            o.Override.preference_level )
        in
        Hashtbl.replace groups key
          (o :: Option.value (Hashtbl.find_opt groups key) ~default:[]))
      children;
    Hashtbl.fold
      (fun _ group acc ->
        let blocks =
          Bgp.Prefix_set.aggregate (List.map (fun o -> o.Override.prefix) group)
        in
        let sample = List.hd group in
        List.map
          (fun block ->
            let rate =
              List.fold_left
                (fun r o ->
                  if Bgp.Prefix.subsumes block o.Override.prefix then
                    r +. o.Override.rate_bps
                  else r)
                0.0 group
            in
            Override.make ~prefix:block ~target:sample.Override.target
              ~from_iface:sample.Override.from_iface
              ~to_iface:sample.Override.to_iface
              ~preference_level:sample.Override.preference_level
              ~rate_bps:rate)
          blocks
        @ acc)
      groups []
  in
  let overrides = List.rev st.overrides in
  let overrides, split_keys =
    if Hashtbl.length st.split_parent = 0 then (overrides, [])
    else
      let is_child o = Hashtbl.mem st.split_parent o.Override.prefix in
      let children, whole = List.partition is_child overrides in
      let merged = aggregate_children children in
      ( whole @ merged,
        List.sort_uniq Bgp.Prefix.compare
          (Hashtbl.fold
             (fun child parent acc -> child :: parent :: acc)
             st.split_parent
             (List.map (fun o -> o.Override.prefix) merged)) )
  in
  {
    overrides;
    before;
    final;
    residual =
      Projection.overloaded_by final ~threshold_of:(fun id -> thr.(id));
    moves_considered = st.moves;
    splits = st.splits;
    split_keys;
  }

let validate_config config =
  match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Allocator.run: bad config: " ^ msg)

let run_warm ?obs ~config ?(trace = Trace.noop) ?warm snapshot =
  validate_config config;
  let reg = match obs with Some r -> r | None -> Ef_obs.Registry.default () in
  let warm_base =
    match warm with
    | Some w when warm_valid ~warm:w snapshot ->
        Some (w, Snapshot.diff w.warm_snapshot snapshot)
    | Some _ | None -> None
  in
  let before, work =
    match warm_base with
    | Some (w, d) ->
        (* advance last cycle's pre-relief image: first over the recorded
           interface-set delta (O(affected); a linked delta records an
           entry only when an (id, capacity) pair changed, and a
           capacity-only entry costs nothing), then over the dirty prefix
           set. Two sequential passes, not one merged list — a prefix both
           re-placed by the iface pass and rate-churned must be retracted
           and re-placed twice, or its load would double-count. No
           overrides at this stage — the before-projection is always the
           BGP-preferred placement. *)
        let img = Projection.Working.copy w.warm_image in
        if d.Snapshot.iface_changes <> [] then
          Projection.Working.apply_iface_delta img ~snapshot
            ~delta:d.Snapshot.iface_changes ();
        Projection.Working.apply_dirty img ~snapshot ~dirty:d.Snapshot.changes ();
        ignore (Projection.Working.drain_touched img);
        (Projection.Working.seal img, img)
    | None ->
        let before = Projection.project snapshot in
        (before, Projection.Working.of_projection before)
  in
  let thr = thresholds ~reg ~config snapshot in
  let initially_over = Bitset.create (Array.length thr) in
  List.iter
    (fun (i, _) -> Bitset.add initially_over (Iface.id i))
    (Projection.overloaded_by before ~threshold_of:(fun id -> thr.(id)));
  (* The relief loop's first ordered read of an overloaded interface
     needs its slot. Build it (or keep the one carried in) before the
     image is retained, so the next cycle inherits it, kept current by the
     warm patch at O(churn · log n); drop every other slot, so a cycle
     that relieves nothing pays no index upkeep. *)
  Projection.Working.retain_slots work ~keep:(Bitset.mem initially_over);
  let next_warm =
    { warm_image = Projection.Working.copy work; warm_snapshot = snapshot }
  in
  let result =
    run_core ~config ~trace ~thr ~initially_over ~before ~work snapshot
  in
  Ef_obs.Counter.add
    (Ef_obs.Registry.counter reg "allocator.slot_builds")
    (float_of_int (Projection.Working.slot_builds work));
  (result, next_warm)

let run ?obs ~config ?trace snapshot = fst (run_warm ?obs ~config ?trace snapshot)

let relief_bps (r : result) =
  List.fold_left (fun acc o -> acc +. o.Override.rate_bps) 0.0 r.overrides

let check_invariants ~config result =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* 1. iterative mode never pushes a previously-fine interface over
     (each interface judged against its own effective threshold) *)
  if config.Config.iterative then
    List.iter
      (fun iface ->
        let threshold = Config.threshold_for config ~iface_id:(Iface.id iface) in
        let before_u = Projection.utilization result.before iface in
        let after_u = Projection.utilization result.final iface in
        if before_u <= threshold && after_u > threshold +. 1e-9 then
          err "iface %d pushed over threshold (%.3f -> %.3f)" (Iface.id iface)
            before_u after_u)
      (Projection.ifaces result.final);
  (* 2/3. structural override checks *)
  List.iter
    (fun o ->
      if o.Override.from_iface = o.Override.to_iface then
        err "override %a detours to its own interface" Override.pp o;
      if o.Override.rate_bps < 0.0 then err "negative rate in %a" Override.pp o)
    result.overrides;
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " es)
