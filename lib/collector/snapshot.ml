module Bgp = Ef_bgp
module Units = Ef_util.Units

type change = {
  ch_prefix : Bgp.Prefix.t;
  ch_old_rate : float option;
  ch_new_rate : float option;
  ch_routes : bool;
}

type iface_change = {
  ic_id : int;
  ic_old_capacity : float option;
  ic_new_capacity : float option;
}

type diff = {
  changes : change list;
  iface_changes : iface_change list;
  linked : bool;
}

type t = {
  time_s : int;
  rate_trie : float Bgp.Ptrie.t; (* the rated prefixes; every rate > 0 *)
  prefix_rates : (Bgp.Prefix.t * float) list Lazy.t;
      (* the trie's bindings in canonical order, sorted on first use *)
  routes : Bgp.Prefix.t -> Bgp.Route.t list;
      (* a lookup that answers the same for the snapshot's lifetime *)
  ifaces : Ef_netsim.Iface.t list;
  iface_index : Ef_netsim.Iface.t option array; (* indexed by iface id *)
  iface_id_of_peer : int -> int option;
  total_m : int64; (* exact sum of the rates in millibps *)
  prefix_count : int;
  stamp : int; (* unique per snapshot; parent links are by stamp *)
  parent : (int * change list * iface_change list) option;
      (* parent stamp + recorded dirty set + recorded iface delta *)
}

let stamps = Atomic.make 0
let next_stamp () = Atomic.fetch_and_add stamps 1

let index_ifaces ifaces =
  let max_id =
    List.fold_left (fun acc i -> max acc (Ef_netsim.Iface.id i)) (-1) ifaces
  in
  let index = Array.make (max_id + 1) None in
  List.iter (fun i -> index.(Ef_netsim.Iface.id i) <- Some i) ifaces;
  index

(* The canonical consideration order: rate descending, prefix ascending.
   A total order (no ties), so every consumer of [prefix_rates] sees one
   byte-stable sequence however the snapshot was built. Nothing on the
   cycle path needs it — projection and allocator are order-independent
   — so the sort runs only when an off-path caller asks. *)
let compare_rated (pa, ra) (pb, rb) =
  let c = Float.compare rb ra in
  if c <> 0 then c else Bgp.Prefix.compare pa pb

let sorted_rates trie =
  lazy
    (List.sort compare_rated
       (Bgp.Ptrie.fold (fun p r acc -> (p, r) :: acc) trie []))

(* Interface-set delta between two indexes, ascending id order (the one
   deterministic order both sides of a diff agree on). Identity is
   (id, capacity): a re-made interface with the same id and capacity is
   not a change — placement resolves by id and thresholds re-derive from
   capacity every run, so nothing downstream can observe it. *)
let iface_delta prev_index next_index =
  let cap a i =
    if i >= Array.length a then None
    else Option.map Ef_netsim.Iface.capacity_bps a.(i)
  in
  let width = max (Array.length prev_index) (Array.length next_index) in
  let acc = ref [] in
  for id = width - 1 downto 0 do
    let o = cap prev_index id and n = cap next_index id in
    if o <> n then
      acc := { ic_id = id; ic_old_capacity = o; ic_new_capacity = n } :: !acc
  done;
  !acc

(* Each entry of an assembled table sets its prefix's rate in list order,
   exactly as [patch] applies [rate_updates]: the last entry for a prefix
   wins, and a last entry at or below zero (or NaN) leaves the prefix
   unrated. Entries go into the trie as they come, non-positive ones
   included, and one filter pass drops those at the end (a no-op that
   allocates nothing when there are none). *)
let assemble ?obs ~routes ~iface_of_peer ~ifaces ~prefix_rates ~time_s () =
  let obs = match obs with Some r -> r | None -> Ef_obs.Registry.default () in
  Ef_obs.Span.time ~registry:obs "collector.assemble" @@ fun () ->
  let entries =
    List.fold_left
      (fun trie (p, r) -> Bgp.Ptrie.add p r trie)
      Bgp.Ptrie.empty prefix_rates
  in
  let rate_trie = Bgp.Ptrie.filter (fun _ r -> r > 0.0) entries in
  let prefix_count = ref 0 and total_m = ref 0L in
  Bgp.Ptrie.iter
    (fun _ r ->
      incr prefix_count;
      total_m := Int64.add !total_m (Units.to_millibps r))
    rate_trie;
  Ef_obs.Counter.inc (Ef_obs.Registry.counter obs "collector.snapshots");
  Ef_obs.Gauge.set
    (Ef_obs.Registry.gauge obs "collector.snapshot.prefixes")
    (float_of_int !prefix_count);
  {
    time_s;
    rate_trie;
    prefix_rates = sorted_rates rate_trie;
    routes;
    ifaces;
    iface_index = index_ifaces ifaces;
    iface_id_of_peer =
      (fun peer_id -> Option.map Ef_netsim.Iface.id (iface_of_peer peer_id));
    total_m = !total_m;
    prefix_count = !prefix_count;
    stamp = next_stamp ();
    parent = None;
  }

let of_pop ?obs ?ifaces pop ~prefix_rates ~time_s =
  let rib = Ef_netsim.Pop.rib pop in
  let pop_ifaces =
    match ifaces with Some l -> l | None -> Ef_netsim.Pop.interfaces pop
  in
  let index = index_ifaces pop_ifaces in
  let iface_by_id id =
    if id < 0 || id >= Array.length index then None else index.(id)
  in
  assemble ?obs
    ~routes:(Bgp.Rib.ranked_view rib)
    ~iface_of_peer:(fun peer_id ->
      match Ef_netsim.Pop.peer pop peer_id with
      | None -> None
      | Some _ ->
          iface_by_id
            (Ef_netsim.Iface.id (Ef_netsim.Pop.iface_of_peer pop ~peer_id)))
    ~ifaces:pop_ifaces ~prefix_rates ~time_s ()

(* Delta construction: [prev] with some rates replaced and some prefixes'
   candidate routes invalidated. All unchanged structure — the rate trie,
   every clean prefix's entry — is shared with [prev] (persistent
   structures), and the total moves by each rate change's exact integer
   contribution, so a patch costs O(churn · log n) whatever the table
   size. Integer addition is associative: the total lands on exactly the
   sum a fresh [assemble] of the same content computes. *)
(* One dirty prefix while a patch is built. *)
type dirty = {
  d_prefix : Bgp.Prefix.t;
  d_old : float option; (* rate in [prev] *)
  mutable d_now : float option;
  mutable d_routes : bool;
}

let patch ?obs ~prev ?routes ?ifaces ?(routes_changed = []) ~rate_updates
    ~time_s () =
  let obs = match obs with Some r -> r | None -> Ef_obs.Registry.default () in
  Ef_obs.Span.time ~registry:obs "collector.patch" @@ fun () ->
  let trie = ref prev.rate_trie in
  let total_m = ref prev.total_m and count = ref prev.prefix_count in
  let dirty = Hashtbl.create (List.length rate_updates + 8) in
  let fresh_dirty p r =
    let d = { d_prefix = p; d_old = r; d_now = r; d_routes = false } in
    Hashtbl.add dirty p d;
    d
  in
  let updated = ref [] (* rate-updated prefixes, latest first touch first *) in
  List.iter
    (fun (p, rate) ->
      let fresh = if rate > 0.0 then Some rate else None in
      (* one descent reads the current rate (on a first touch, the old
         one) and writes the new; a no-op answers the binding it was
         given, so no path is copied *)
      let now = ref None in
      trie :=
        Bgp.Ptrie.update p
          (fun o ->
            now := o;
            if o = fresh then o else fresh)
          !trie;
      let d =
        match Hashtbl.find_opt dirty p with
        | Some d -> d
        | None ->
            let d = fresh_dirty p !now in
            updated := d :: !updated;
            d
      in
      if !now <> fresh then begin
        Option.iter
          (fun r ->
            total_m := Int64.sub !total_m (Units.to_millibps r);
            decr count)
          !now;
        Option.iter
          (fun r ->
            total_m := Int64.add !total_m (Units.to_millibps r);
            incr count)
          fresh;
        d.d_now <- fresh
      end)
    rate_updates;
  (* a rerouted prefix flags its rate record; one whose rate did not
     change (untouched, or a net no-op update) gets a routes-only record *)
  let routes_only =
    List.fold_left
      (fun acc p ->
        let d =
          match Hashtbl.find_opt dirty p with
          | Some d -> d
          | None -> fresh_dirty p (Bgp.Ptrie.find p !trie)
        in
        if d.d_routes then acc
        else begin
          d.d_routes <- true;
          if d.d_old = d.d_now then d :: acc else acc
        end)
      [] routes_changed
  in
  let record d =
    { ch_prefix = d.d_prefix; ch_old_rate = d.d_old; ch_new_rate = d.d_now;
      ch_routes = d.d_routes }
  in
  (* routes-only records in reverse [routes_changed] order, then the rate
     records in first-update order *)
  let changes =
    List.map record routes_only
    @ List.fold_left
        (fun acc d -> if d.d_old = d.d_now then acc else record d :: acc)
        [] !updated
  in
  (* the iface delta is recorded content-based, not identity-based: a
     caller re-passing an equal interface list records no change, so a
     derate-aware caller can pass [ifaces] every cycle without cost *)
  let ifaces, iface_index, iface_changes =
    match ifaces with
    | None -> (prev.ifaces, prev.iface_index, [])
    | Some l ->
        let index = index_ifaces l in
        (l, index, iface_delta prev.iface_index index)
  in
  Ef_obs.Counter.inc (Ef_obs.Registry.counter obs "collector.patches");
  {
    time_s;
    rate_trie = !trie;
    prefix_rates = sorted_rates !trie;
    routes = Option.value routes ~default:prev.routes;
    ifaces;
    iface_index;
    iface_id_of_peer = prev.iface_id_of_peer;
    total_m = !total_m;
    prefix_count = !count;
    stamp = next_stamp ();
    parent = Some (prev.stamp, changes, iface_changes);
  }

let linked prev next =
  prev == next
  ||
  match next.parent with
  | Some (stamp, _, _) -> stamp = prev.stamp
  | None -> false

let diff prev next =
  if prev == next then { changes = []; iface_changes = []; linked = true }
  else
    match next.parent with
    | Some (stamp, changes, iface_changes) when stamp = prev.stamp ->
        { changes; iface_changes; linked = true }
    | _ ->
        (* Unlinked pair: recover the exact rate difference by merge-walking
           the two tries (physical sharing prunes common structure). Route
           changes are unknowable from the outside, so every changed prefix
           is conservatively flagged and [linked] is false — consumers that
           need route stability for *clean* prefixes must fall back to a
           full recompute. The iface delta, by contrast, is exact either
           way: both indexes are at hand. *)
        let changes =
          Bgp.Ptrie.fold2
            ~eq:(fun (a : float) b -> a = b)
            (fun p o n acc ->
              { ch_prefix = p; ch_old_rate = o; ch_new_rate = n;
                ch_routes = true }
              :: acc)
            prev.rate_trie next.rate_trie []
        in
        {
          changes;
          iface_changes = iface_delta prev.iface_index next.iface_index;
          linked = false;
        }

let time_s t = t.time_s
let prefix_rates t = Lazy.force t.prefix_rates

let iter_rates t f = Bgp.Ptrie.iter f t.rate_trie

let rate_of t prefix =
  Option.value (Bgp.Ptrie.find prefix t.rate_trie) ~default:0.0

let rated_covers t prefix = Bgp.Ptrie.covers prefix t.rate_trie

let routes t prefix = t.routes prefix

let preferred_route t prefix =
  match routes t prefix with [] -> None | r :: _ -> Some r

let ifaces t = t.ifaces

let iface_by_id t id =
  if id < 0 || id >= Array.length t.iface_index then None else t.iface_index.(id)

let max_iface_id t = Array.length t.iface_index - 1

let iface_of_peer t ~peer_id =
  match t.iface_id_of_peer peer_id with
  | None -> None
  | Some id -> iface_by_id t id

let iface_of_route t route = iface_of_peer t ~peer_id:(Bgp.Route.peer_id route)
let total_rate_millibps t = t.total_m
let total_rate_bps t = Units.of_millibps t.total_m
let prefix_count t = t.prefix_count
