(* Cross-module property tests: invariants on randomized inputs over the
   generated tiny world. *)

module Bgp = Ef_bgp
module N = Ef_netsim
module C = Ef_collector
module Ef = Edge_fabric

let world = lazy (N.Topo_gen.generate N.Topo_gen.small_config)

(* random rate vectors over the world's prefixes *)
let gen_rates =
  QCheck.Gen.(
    let w = Lazy.force world in
    let prefixes = Array.of_list w.N.Topo_gen.all_prefixes in
    map
      (fun pairs ->
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (i, r) ->
            let p = prefixes.(i mod Array.length prefixes) in
            Hashtbl.replace tbl (Bgp.Prefix.to_string p)
              (p, float_of_int (r + 1) *. 1e7))
          pairs;
        Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])
      (list_size (int_range 1 40) (pair small_nat (int_bound 2000))))

let arb_rates =
  QCheck.make
    ~print:(fun rates ->
      String.concat ";"
        (List.map
           (fun (p, r) -> Printf.sprintf "%s=%.0f" (Bgp.Prefix.to_string p) r)
           rates))
    gen_rates

let snapshot_of rates =
  C.Snapshot.of_pop (Lazy.force world).N.Topo_gen.pop ~prefix_rates:rates
    ~time_s:0

(* --- Projection: traffic conservation --------------------------------- *)

let prop_projection_conserves =
  QCheck.Test.make ~name:"projection conserves traffic" ~count:100 arb_rates
    (fun rates ->
      let proj = Ef.Projection.project (snapshot_of rates) in
      let placed =
        List.fold_left
          (fun acc iface ->
            acc +. Ef.Projection.load_bps proj ~iface_id:(N.Iface.id iface))
          0.0 (Ef.Projection.ifaces proj)
      in
      let total = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 rates in
      Float.abs (placed +. Ef.Projection.unroutable_bps proj -. total)
      < 1.0 +. (1e-9 *. total))

let prop_projection_move_conserves =
  QCheck.Test.make ~name:"projection move conserves" ~count:100 arb_rates
    (fun rates ->
      let snap = snapshot_of rates in
      let proj = Ef.Projection.project snap in
      let sum p =
        List.fold_left
          (fun acc iface ->
            acc +. Ef.Projection.load_bps p ~iface_id:(N.Iface.id iface))
          0.0 (Ef.Projection.ifaces p)
      in
      (* move every movable placement to its 2nd choice and re-check *)
      let moved =
        List.fold_left
          (fun proj pl ->
            match C.Snapshot.routes snap pl.Ef.Projection.placed_prefix with
            | _ :: alt :: _ -> (
                match C.Snapshot.iface_of_route snap alt with
                | Some iface when N.Iface.id iface <> pl.Ef.Projection.iface_id ->
                    Ef.Projection.move proj pl.Ef.Projection.placed_prefix
                      ~to_route:alt ~to_iface:(N.Iface.id iface)
                | Some _ | None -> proj)
            | _ -> proj)
          proj (Ef.Projection.placements proj)
      in
      Float.abs (sum moved -. sum proj) < 1.0)

(* --- Allocator + Guard -------------------------------------------------- *)

let prop_guard_clamp_respects_budgets =
  QCheck.Test.make ~name:"guard clamp lands within budgets" ~count:100
    QCheck.(pair arb_rates (pair (int_range 0 10) (int_bound 100)))
    (fun (rates, (max_n, frac_pct)) ->
      let snap = snapshot_of rates in
      let result = Ef.Allocator.run ~config:Ef.Config.default snap in
      let config =
        {
          Ef.Guard.max_overrides = Some max_n;
          max_detour_fraction = Some (float_of_int frac_pct /. 100.0);
        }
      in
      let kept, dropped = Ef.Guard.clamp config snap result.Ef.Allocator.overrides in
      let count_ok = List.length kept <= max_n in
      let permutation_ok =
        List.length kept + List.length dropped
        = List.length result.Ef.Allocator.overrides
      in
      (* fraction budget holds whenever anything was kept *)
      let total = C.Snapshot.total_rate_bps snap in
      let kept_frac =
        if total <= 0.0 then 0.0
        else
          List.fold_left
            (fun acc (o : Ef.Override.t) ->
              acc +. C.Snapshot.rate_of snap o.Ef.Override.prefix)
            0.0 kept
          /. total
      in
      count_ok && permutation_ok
      && (kept = [] || kept_frac <= (float_of_int frac_pct /. 100.0) +. 1e-9))

let prop_allocator_overrides_unique_prefixes =
  QCheck.Test.make ~name:"allocator overrides are per-prefix unique" ~count:100
    arb_rates
    (fun rates ->
      let result = Ef.Allocator.run ~config:Ef.Config.default (snapshot_of rates) in
      let keys =
        List.map
          (fun (o : Ef.Override.t) -> Bgp.Prefix.to_string o.Ef.Override.prefix)
          result.Ef.Allocator.overrides
      in
      List.length keys = List.length (List.sort_uniq compare keys))

(* --- Hysteresis --------------------------------------------------------- *)

let prop_hysteresis_never_early_release =
  QCheck.Test.make ~name:"hysteresis holds min_hold" ~count:100
    QCheck.(pair arb_rates (int_range 1 10))
    (fun (rates, steps) ->
      let snap = snapshot_of rates in
      let result = Ef.Allocator.run ~config:Ef.Config.default snap in
      QCheck.assume (result.Ef.Allocator.overrides <> []);
      let config = Ef.Config.make ~min_hold_s:10_000 () in
      let h = Ef.Hysteresis.create config in
      ignore
        (Ef.Hysteresis.step h ~time_s:0 ~desired:result.Ef.Allocator.overrides
           ~preferred:result.Ef.Allocator.before);
      (* repeatedly ask for release way before maturity *)
      let ok = ref true in
      for i = 1 to steps do
        let r =
          Ef.Hysteresis.step h ~time_s:(i * 30) ~desired:[]
            ~preferred:result.Ef.Allocator.before
        in
        if r.Ef.Hysteresis.removed <> [] then ok := false
      done;
      !ok)

let prop_hysteresis_tracks_when_disabled =
  QCheck.Test.make ~name:"disabled hysteresis mirrors allocator" ~count:100
    arb_rates
    (fun rates ->
      let snap = snapshot_of rates in
      let result = Ef.Allocator.run ~config:Ef.Config.default snap in
      let config =
        Ef.Config.make ~min_hold_s:0 ~release_margin:0.0 ()
      in
      let h = Ef.Hysteresis.create config in
      let r1 =
        Ef.Hysteresis.step h ~time_s:0 ~desired:result.Ef.Allocator.overrides
          ~preferred:result.Ef.Allocator.before
      in
      List.length r1.Ef.Hysteresis.active
      = List.length result.Ef.Allocator.overrides)

(* --- Trace ---------------------------------------------------------------- *)

let prop_trace_roundtrip =
  QCheck.Test.make ~name:"trace roundtrips random snapshots" ~count:50 arb_rates
    (fun rates ->
      let snap = snapshot_of rates in
      match C.Trace.parse (C.Trace.record snap) with
      | Error _ -> false
      | Ok replayed ->
          C.Snapshot.prefix_count snap = C.Snapshot.prefix_count replayed
          && List.for_all2
               (fun (p1, r1) (p2, r2) ->
                 Bgp.Prefix.equal p1 p2 && Float.abs (r1 -. r2) < 0.01)
               (C.Snapshot.prefix_rates snap)
               (C.Snapshot.prefix_rates replayed)
          && List.for_all
               (fun (p, _) ->
                 List.map Bgp.Route.peer_id (C.Snapshot.routes snap p)
                 = List.map Bgp.Route.peer_id (C.Snapshot.routes replayed p))
               (C.Snapshot.prefix_rates snap))

(* --- Controller end-to-end ----------------------------------------------- *)

let prop_controller_enforced_within_thresholds =
  QCheck.Test.make ~name:"controller leaves no fixable overload" ~count:60
    arb_rates
    (fun rates ->
      let snap = snapshot_of rates in
      let ctrl = Ef.Controller.create ~name:"prop" () in
      let stats = Ef.Controller.cycle ctrl snap in
      (* every interface still over threshold after enforcement must be a
         declared residual (capacity genuinely exhausted) *)
      let residual_ids =
        List.map
          (fun (i, _) -> N.Iface.id i)
          (Ef.Controller.residual_overloads stats)
      in
      List.for_all
        (fun (iface, _) -> List.mem (N.Iface.id iface) residual_ids)
        (Ef.Controller.overloaded_after stats))

(* --- Zipf demand weights ------------------------------------------------- *)

let arb_zipf =
  QCheck.make
    ~print:(fun (n, s) -> Printf.sprintf "n=%d s=%.3f" n s)
    QCheck.Gen.(
      pair (int_range 1 500)
        (map (fun x -> 0.5 +. (float_of_int x /. 100.0)) (int_range 0 100)))

let prop_zipf_mass =
  QCheck.Test.make ~name:"zipf probabilities conserve mass" ~count:100 arb_zipf
    (fun (n, s) ->
      let z = Ef_util.Zipf.create ~n ~s in
      let sum = Array.fold_left ( +. ) 0.0 (Ef_util.Zipf.weights z) in
      Float.abs (sum -. 1.0) < 1e-9
      && Float.abs (Ef_util.Zipf.top_share z n -. 1.0) < 1e-9)

let prop_zipf_rank_order =
  QCheck.Test.make ~name:"zipf weights non-increasing in rank" ~count:100
    arb_zipf
    (fun (n, s) ->
      let z = Ef_util.Zipf.create ~n ~s in
      let ok = ref true in
      for rank = 1 to n - 1 do
        if
          Ef_util.Zipf.probability z rank
          < Ef_util.Zipf.probability z (rank + 1)
        then ok := false
      done;
      !ok && Array.for_all (fun w -> w > 0.0) (Ef_util.Zipf.weights z))

let prop_zipf_sample_deterministic =
  QCheck.Test.make ~name:"zipf sampling deterministic per seed" ~count:50
    (QCheck.pair arb_zipf QCheck.small_nat)
    (fun ((n, s), seed) ->
      let z = Ef_util.Zipf.create ~n ~s in
      let draw () =
        let rng = Ef_util.Rng.create seed in
        List.init 50 (fun _ -> Ef_util.Zipf.sample z rng)
      in
      let a = draw () and b = draw () in
      a = b && List.for_all (fun r -> r >= 1 && r <= n) a)

(* --- Snapshot.diff ------------------------------------------------------- *)

let sorted_rates snap =
  List.sort
    (fun (a, _) (b, _) -> Bgp.Prefix.compare a b)
    (C.Snapshot.prefix_rates snap)

let apply_diff ~prev ~time_s (d : C.Snapshot.diff) =
  C.Snapshot.patch ~prev
    ~routes_changed:
      (List.filter_map
         (fun (c : C.Snapshot.change) ->
           if c.C.Snapshot.ch_routes then Some c.C.Snapshot.ch_prefix else None)
         d.C.Snapshot.changes)
    ~rate_updates:
      (List.map
         (fun (c : C.Snapshot.change) ->
           ( c.C.Snapshot.ch_prefix,
             Option.value c.C.Snapshot.ch_new_rate ~default:0.0 ))
         d.C.Snapshot.changes)
    ~time_s ()

(* diff of a patched pair is the exact recorded delta: linked, and
   re-applying it to [prev] reproduces [next]'s content bit for bit *)
let prop_diff_patch_roundtrip =
  QCheck.Test.make ~name:"diff (patch) re-applies to identity" ~count:100
    (QCheck.pair arb_rates arb_rates)
    (fun (rates1, rates2) ->
      let prev = snapshot_of rates1 in
      let updates =
        List.mapi
          (fun i (p, r) -> if i mod 3 = 0 then (p, 0.0) else (p, r))
          rates2
      in
      let next =
        C.Snapshot.patch ~prev ~rate_updates:updates ~time_s:30 ()
      in
      let d = C.Snapshot.diff prev next in
      let reapplied = apply_diff ~prev ~time_s:30 d in
      d.C.Snapshot.linked
      && sorted_rates reapplied = sorted_rates next
      && C.Snapshot.total_rate_bps reapplied
         = C.Snapshot.total_rate_bps next)

let prop_diff_empty =
  QCheck.Test.make ~name:"empty diff on identical content" ~count:100 arb_rates
    (fun rates ->
      let snap = snapshot_of rates in
      let self = C.Snapshot.diff snap snap in
      let noop = C.Snapshot.patch ~prev:snap ~rate_updates:[] ~time_s:30 () in
      let d = C.Snapshot.diff snap noop in
      self.C.Snapshot.changes = []
      && self.C.Snapshot.linked
      && d.C.Snapshot.changes = []
      && d.C.Snapshot.linked)

(* unlinked fuzzed pairs: the merge-walk finds exactly the prefixes whose
   rates differ, flags routes conservatively, and applying the result
   still reconstructs the target's rate content *)
let prop_diff_unlinked_fuzzed =
  QCheck.Test.make ~name:"diff (unlinked) exact on rates" ~count:100
    (QCheck.pair arb_rates arb_rates)
    (fun (rates1, rates2) ->
      let a = snapshot_of rates1 and b = snapshot_of rates2 in
      let d = C.Snapshot.diff a b in
      let tbl rates =
        let t = Hashtbl.create 16 in
        List.iter (fun (p, r) -> Hashtbl.replace t (Bgp.Prefix.to_string p) (p, r)) rates;
        t
      in
      let ta = tbl rates1 and tb = tbl rates2 in
      let expected = Hashtbl.create 16 in
      Hashtbl.iter
        (fun k (p, r) ->
          match Hashtbl.find_opt tb k with
          | Some (_, r') when r' = r -> ()
          | _ -> Hashtbl.replace expected k p)
        ta;
      Hashtbl.iter
        (fun k (p, _) ->
          if not (Hashtbl.mem ta k) then Hashtbl.replace expected k p)
        tb;
      let sort_prefixes l = List.sort Bgp.Prefix.compare l in
      let got =
        sort_prefixes
          (List.map
             (fun (c : C.Snapshot.change) -> c.C.Snapshot.ch_prefix)
             d.C.Snapshot.changes)
      in
      let want =
        sort_prefixes (Hashtbl.fold (fun _ p acc -> p :: acc) expected [])
      in
      let rates_ok =
        List.for_all
          (fun (c : C.Snapshot.change) ->
            let k = Bgp.Prefix.to_string c.C.Snapshot.ch_prefix in
            let old_r =
              Option.map snd (Hashtbl.find_opt ta k)
            and new_r = Option.map snd (Hashtbl.find_opt tb k) in
            c.C.Snapshot.ch_old_rate = old_r
            && c.C.Snapshot.ch_new_rate = new_r
            && c.C.Snapshot.ch_routes)
          d.C.Snapshot.changes
      in
      let reapplied = apply_diff ~prev:a ~time_s:0 d in
      (not d.C.Snapshot.linked)
      && got = want && rates_ok
      && sorted_rates reapplied = sorted_rates b)

(* interface-set deltas: a patch that substitutes the interface list
   records exactly the added, removed and capacity-changed ids (ascending,
   content-based), the unlinked merge-walk reconstructs the same delta
   from the two indexes, and applying the recorded delta to [prev]'s
   interface set reproduces [next]'s *)
let prop_diff_iface_roundtrip =
  QCheck.Test.make ~name:"diff (patch) records iface delta exactly" ~count:100
    (QCheck.pair arb_rates QCheck.small_nat)
    (fun (rates, seed) ->
      let prev = snapshot_of rates in
      let base = C.Snapshot.ifaces prev in
      let rng = Ef_util.Rng.create (seed + 1) in
      let kept =
        List.filter_map
          (fun ifc ->
            match Ef_util.Rng.int rng 4 with
            | 0 -> None (* removed *)
            | 1 ->
                (* derated: same id, halved capacity *)
                Some
                  (N.Iface.make ~id:(N.Iface.id ifc) ~name:(N.Iface.name ifc)
                     ~capacity_bps:(0.5 *. N.Iface.capacity_bps ifc)
                     ~shared:(N.Iface.shared ifc))
            | _ -> Some ifc)
          base
      in
      let fresh_id =
        1 + List.fold_left (fun m i -> max m (N.Iface.id i)) (-1) base
      in
      let mutated =
        if Ef_util.Rng.int rng 2 = 0 then
          kept
          @ [
              N.Iface.make ~id:fresh_id ~name:"added" ~capacity_bps:5e9
                ~shared:false;
            ]
        else kept
      in
      let next =
        C.Snapshot.patch ~prev ~ifaces:mutated ~rate_updates:[] ~time_s:30 ()
      in
      let d = C.Snapshot.diff prev next in
      let cap l id =
        List.find_opt (fun i -> N.Iface.id i = id) l
        |> Option.map N.Iface.capacity_bps
      in
      let expected =
        List.filter_map
          (fun id ->
            let o = cap base id and n = cap mutated id in
            if o = n then None
            else
              Some
                {
                  C.Snapshot.ic_id = id;
                  ic_old_capacity = o;
                  ic_new_capacity = n;
                })
          (List.sort_uniq compare (List.map N.Iface.id (base @ mutated)))
      in
      (* an unlinked pair over the same content must reconstruct the same
         delta from the two interface indexes *)
      let cold =
        C.Snapshot.of_pop (Lazy.force world).N.Topo_gen.pop ~ifaces:mutated
          ~prefix_rates:rates ~time_s:30
      in
      let d_unlinked = C.Snapshot.diff prev cold in
      (* the recorded delta applied to prev's set reproduces next's set *)
      let reapplied =
        List.filter_map
          (fun ifc ->
            match
              List.find_opt
                (fun (c : C.Snapshot.iface_change) ->
                  c.C.Snapshot.ic_id = N.Iface.id ifc)
                d.C.Snapshot.iface_changes
            with
            | None -> Some (N.Iface.id ifc, N.Iface.capacity_bps ifc)
            | Some { C.Snapshot.ic_new_capacity = None; _ } -> None
            | Some { C.Snapshot.ic_new_capacity = Some c; _ } ->
                Some (N.Iface.id ifc, c))
          base
        @ List.filter_map
            (fun (c : C.Snapshot.iface_change) ->
              match (c.C.Snapshot.ic_old_capacity, c.C.Snapshot.ic_new_capacity) with
              | None, Some cap -> Some (c.C.Snapshot.ic_id, cap)
              | _ -> None)
            d.C.Snapshot.iface_changes
      in
      let set l = List.sort compare l in
      d.C.Snapshot.linked
      && d.C.Snapshot.iface_changes = expected
      && (not d_unlinked.C.Snapshot.linked)
      && d_unlinked.C.Snapshot.iface_changes = expected
      && set reapplied
         = set
             (List.map
                (fun i -> (N.Iface.id i, N.Iface.capacity_bps i))
                (C.Snapshot.ifaces next)))

(* --- wire-codec fuzz ----------------------------------------------------- *)

(* Deterministic Rng-driven fuzz (Ef_util.Rng, fixed seeds): round-trip
   decode∘encode = id for each codec, and totality — a decoder fed
   truncated or bit-flipped bytes returns an error, it never raises. *)

let fuzz_cases = 500

let rng_fuzz name f =
  Alcotest.test_case name `Quick (fun () ->
      let rng = Ef_util.Rng.create 0xF00D in
      for case = 1 to fuzz_cases do
        f rng ~case
      done)

let gen_ip rng = Bgp.Ipv4.of_int32 (Int32.of_int (Ef_util.Rng.int rng 0x3FFFFFFF))

let gen_prefix rng =
  Bgp.Prefix.make (gen_ip rng) (Ef_util.Rng.int rng 33)

let gen_attrs rng =
  let path =
    List.init
      (1 + Ef_util.Rng.int rng 5)
      (fun _ -> Bgp.Asn.of_int (1 + Ef_util.Rng.int rng 100_000))
  in
  Bgp.Attrs.make
    ~origin:(Ef_util.Rng.pick rng [| Bgp.Attrs.Igp; Bgp.Attrs.Egp; Bgp.Attrs.Incomplete |])
    ~med:(if Ef_util.Rng.bool rng then Some (Ef_util.Rng.int rng 10_000) else None)
    ~local_pref:
      (if Ef_util.Rng.bool rng then Some (Ef_util.Rng.int rng 1_000) else None)
    ~communities:
      (List.init (Ef_util.Rng.int rng 4) (fun _ ->
           Bgp.Community.make (Ef_util.Rng.int rng 65_536) (Ef_util.Rng.int rng 65_536)))
    ~as_path:(Bgp.As_path.of_list path)
    ~next_hop:(gen_ip rng) ()

let gen_bgp_update rng =
  let withdrawn = List.init (Ef_util.Rng.int rng 4) (fun _ -> gen_prefix rng) in
  let nlri = List.init (Ef_util.Rng.int rng 6) (fun _ -> gen_prefix rng) in
  if nlri = [] then Bgp.Msg.make_update ~withdrawn ()
  else Bgp.Msg.make_update ~withdrawn ~attrs:(gen_attrs rng) ~nlri ()

(* mutate one random bit of a wire image *)
let bit_flip rng s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = Ef_util.Rng.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Ef_util.Rng.int rng 8)));
    Bytes.to_string b
  end

let truncate rng s =
  if String.length s = 0 then s else String.sub s 0 (Ef_util.Rng.int rng (String.length s))

let fuzz_bgp_codec =
  rng_fuzz "bgp codec fuzz roundtrip (500)" (fun rng ~case ->
      let msg = gen_bgp_update rng in
      let wire = Bgp.Codec.encode msg in
      (match Bgp.Codec.decode wire with
      | Ok (decoded, consumed) ->
          if consumed <> String.length wire || not (Bgp.Msg.equal msg decoded)
          then
            Alcotest.failf "case %d: roundtrip mismatch for %s" case
              (Format.asprintf "%a" Bgp.Msg.pp msg)
      | Error e ->
          Alcotest.failf "case %d: decode of own encoding failed: %s" case
            (Bgp.Codec.error_to_string e));
      (* totality: truncations and bit flips produce Ok/Error, no raise *)
      (match Bgp.Codec.decode (truncate rng wire) with Ok _ | Error _ -> ());
      match Bgp.Codec.decode (bit_flip rng wire) with Ok _ | Error _ -> ())

let gen_sflow_datagram rng =
  let gen_sample () =
    {
      C.Sflow_codec.sample_seq = Ef_util.Rng.int rng 1_000_000;
      source_id = Ef_util.Rng.int rng 1_000;
      sampling_rate = 1 + Ef_util.Rng.int rng 10_000;
      sample_pool = Ef_util.Rng.int rng 10_000_000;
      drops = Ef_util.Rng.int rng 100;
      packet =
        {
          C.Sflow_codec.dst = gen_ip rng;
          frame_length = 20 + Ef_util.Rng.int rng 65_000;
        };
    }
  in
  {
    C.Sflow_codec.agent = gen_ip rng;
    sub_agent = Ef_util.Rng.int rng 16;
    datagram_seq = Ef_util.Rng.int rng 1_000_000;
    uptime_ms = Ef_util.Rng.int rng 1_000_000_000;
    samples =
      List.init
        (Ef_util.Rng.int rng (C.Sflow_codec.max_samples_per_datagram + 1))
        (fun _ -> gen_sample ());
  }

let fuzz_sflow_codec =
  rng_fuzz "sflow codec fuzz roundtrip (500)" (fun rng ~case ->
      let dg = gen_sflow_datagram rng in
      let wire = C.Sflow_codec.encode dg in
      (match C.Sflow_codec.decode wire with
      | Ok decoded ->
          if decoded <> dg then Alcotest.failf "case %d: datagram mismatch" case
      | Error e ->
          Alcotest.failf "case %d: decode of own encoding failed: %s" case
            (Format.asprintf "%a" C.Sflow_codec.pp_error e));
      (match C.Sflow_codec.decode (truncate rng wire) with
      | Ok _ | Error _ -> ());
      match C.Sflow_codec.decode (bit_flip rng wire) with Ok _ | Error _ -> ())

let gen_mrt rng =
  let peers =
    List.init
      (1 + Ef_util.Rng.int rng 5)
      (fun _ ->
        {
          Bgp.Mrt.peer_bgp_id = gen_ip rng;
          peer_addr = gen_ip rng;
          peer_asn = Bgp.Asn.of_int (1 + Ef_util.Rng.int rng 100_000);
        })
  in
  let n_peers = List.length peers in
  let records =
    List.init (Ef_util.Rng.int rng 8) (fun sequence ->
        {
          Bgp.Mrt.sequence;
          rib_prefix = gen_prefix rng;
          entries =
            List.init
              (1 + Ef_util.Rng.int rng 3)
              (fun _ ->
                {
                  Bgp.Mrt.entry_peer_index = Ef_util.Rng.int rng n_peers;
                  originated_at = Ef_util.Rng.int rng 1_000_000_000;
                  attrs = gen_attrs rng;
                });
        })
  in
  { Bgp.Mrt.collector_id = gen_ip rng; view_name = "fuzz"; peers; records }

let fuzz_mrt_codec =
  rng_fuzz "mrt codec fuzz roundtrip (500)" (fun rng ~case ->
      let dump = gen_mrt rng in
      let wire = Bgp.Mrt.encode ~timestamp:0 dump in
      (match Bgp.Mrt.decode wire with
      | Ok decoded ->
          (* compare via re-encoding: byte-identical wire means the decode
             lost nothing the encoder expresses *)
          if Bgp.Mrt.encode ~timestamp:0 decoded <> wire then
            Alcotest.failf "case %d: re-encode differs" case
      | Error e ->
          Alcotest.failf "case %d: decode of own encoding failed: %s" case
            (Format.asprintf "%a" Bgp.Mrt.pp_error e));
      (match Bgp.Mrt.decode (truncate rng wire) with Ok _ | Error _ -> ());
      match Bgp.Mrt.decode (bit_flip rng wire) with Ok _ | Error _ -> ())

let gen_bmp_msg rng =
  let u32 () = Ef_util.Rng.int rng 0x3FFFFFFF in
  let header () =
    {
      C.Bmp.peer_id = u32 ();
      peer_addr = gen_ip rng;
      peer_asn = Bgp.Asn.of_int (1 + Ef_util.Rng.int rng 100_000);
      peer_bgp_id = gen_ip rng;
      timestamp_s = u32 ();
    }
  in
  let text () =
    String.init (Ef_util.Rng.int rng 24) (fun _ ->
        Char.chr (32 + Ef_util.Rng.int rng 95))
  in
  match Ef_util.Rng.int rng 6 with
  | 0 -> (
      match gen_bgp_update rng with
      | Bgp.Msg.Update update -> C.Bmp.Route_monitoring { header = header (); update }
      | _ -> assert false)
  | 1 -> C.Bmp.Initiation { sys_name = text (); sys_descr = text () }
  | 2 -> C.Bmp.Termination { reason = Ef_util.Rng.int rng 0x10000 }
  | 3 ->
      C.Bmp.Peer_up
        {
          header = header ();
          local_addr = gen_ip rng;
          local_port = Ef_util.Rng.int rng 0x10000;
          remote_port = Ef_util.Rng.int rng 0x10000;
        }
  | 4 -> C.Bmp.Peer_down { header = header (); reason = Ef_util.Rng.int rng 0x100 }
  | _ -> C.Bmp.Stats_report { header = header (); routes_monitored = u32 () }

let fuzz_bmp_codec =
  rng_fuzz "bmp codec fuzz roundtrip (500)" (fun rng ~case ->
      let msgs = List.init (1 + Ef_util.Rng.int rng 4) (fun _ -> gen_bmp_msg rng) in
      let wire = String.concat "" (List.map C.Bmp.encode msgs) in
      let first = List.hd msgs in
      (match C.Bmp.decode wire with
      | Ok (decoded, consumed) ->
          if
            consumed <> String.length (C.Bmp.encode first)
            || not (C.Bmp.equal first decoded)
          then
            Alcotest.failf "case %d: roundtrip mismatch for %s" case
              (Format.asprintf "%a" C.Bmp.pp first)
      | Error e ->
          Alcotest.failf "case %d: decode of own encoding failed: %s" case
            (Format.asprintf "%a" C.Bmp.pp_error e));
      (match C.Bmp.decode_all wire with
      | Ok decoded ->
          if not (List.equal C.Bmp.equal msgs decoded) then
            Alcotest.failf "case %d: decode_all mismatch" case
      | Error e ->
          Alcotest.failf "case %d: decode_all of own encoding failed: %s" case
            (Format.asprintf "%a" C.Bmp.pp_error e));
      (* totality: truncations and bit flips produce Ok/Error, no raise *)
      List.iter
        (fun mutated ->
          (match C.Bmp.decode mutated with Ok _ | Error _ -> ());
          match C.Bmp.decode_all mutated with Ok _ | Error _ -> ())
        [ truncate rng wire; bit_flip rng wire ])

(* --- Patch chains against fresh assembly ------------------------------- *)

(* Random patch sequences: each step draws rate moves, withdrawals and
   re-announcements, route bumps (the best announcement disappears or
   comes back), prefixes that are both rate-updated and rerouted, a
   repeated update for one prefix (the last one wins), and interface
   additions, removals and derates. After every step the patched
   snapshot must equal a fresh [assemble] of the same content, and the
   conservation invariant must hold exactly in millibps — loads plus
   unroutable traffic equal the snapshot's total — on the cold
   projection, on the warm image advanced over the recorded delta, and on
   the controller's preferred and enforced projections. (The default
   config places whole prefixes; /24 splitting quantizes each child on
   its own, so it is left out of the exact form.) The warm image must
   also equal the cold projection placement for placement, and on its
   stale overrides: both project under one fixed override assignment —
   every third prefix is steered to one peer — so some overrides hold
   and some go stale as routes and interfaces come and go. *)
let prop_patch_chain_equals_assemble =
  QCheck.Test.make ~name:"patch chain = assemble, exact conservation"
    ~count:25 QCheck.small_nat (fun seed ->
      let rng = Ef_util.Rng.create (seed + 17) in
      let w = Gen.world (3000 + seed) in
      let pop = w.N.Topo_gen.pop in
      let base = Array.of_list (Gen.rates_of_world w) in
      let n = Array.length base in
      let all_ifaces = N.Pop.interfaces pop in
      let best_gone = Hashtbl.create 8 in
      let routes p =
        let rs = Bgp.Rib.ranked (N.Pop.rib pop) p in
        if Hashtbl.mem best_gone p then match rs with [] -> [] | _ :: tl -> tl
        else rs
      in
      let iface_of_peer ifaces peer_id =
        match N.Pop.peer pop peer_id with
        | None -> None
        | Some _ ->
            let id = N.Iface.id (N.Pop.iface_of_peer pop ~peer_id) in
            List.find_opt (fun i -> N.Iface.id i = id) ifaces
      in
      let steer_to =
        let second =
          Array.to_list base
          |> List.find_map (fun (p, _) ->
                 match routes p with _ :: r :: _ -> Some r | _ -> None)
        in
        match second with
        | Some r -> r
        | None -> QCheck.Test.fail_reportf "seed %d: no prefix has two routes" seed
      in
      let overrides p =
        if Hashtbl.hash (Bgp.Prefix.to_string p) mod 3 = 0 then Some steer_to
        else None
      in
      let model = Hashtbl.create 64 in
      Array.iter (fun (p, r) -> Hashtbl.replace model p r) base;
      let assemble ifaces time_s =
        C.Snapshot.assemble ~obs:(Ef_obs.Registry.create ()) ~routes
          ~iface_of_peer:(iface_of_peer ifaces) ~ifaces
          ~prefix_rates:(Hashtbl.fold (fun p r acc -> (p, r) :: acc) model [])
          ~time_s ()
      in
      let conserved what snap proj =
        let loads =
          List.fold_left
            (fun acc i ->
              Int64.add acc
                (Ef.Projection.load_millibps proj ~iface_id:(N.Iface.id i)))
            0L (C.Snapshot.ifaces snap)
        in
        let got = Int64.add loads (Ef.Projection.unroutable_millibps proj) in
        if got <> C.Snapshot.total_rate_millibps snap then
          QCheck.Test.fail_reportf "%s: loads + unroutable = %Ld, total %Ld"
            what got
            (C.Snapshot.total_rate_millibps snap)
      in
      let same_content what patched fresh =
        let universe = Array.map fst base in
        if
          C.Snapshot.total_rate_millibps patched
          <> C.Snapshot.total_rate_millibps fresh
          || C.Snapshot.total_rate_bps patched
             <> C.Snapshot.total_rate_bps fresh
          || C.Snapshot.prefix_count patched <> C.Snapshot.prefix_count fresh
          || C.Snapshot.prefix_rates patched <> C.Snapshot.prefix_rates fresh
          || not
               (Array.for_all
                  (fun p ->
                    C.Snapshot.rate_of patched p = C.Snapshot.rate_of fresh p)
                  universe)
        then QCheck.Test.fail_reportf "%s: patched snapshot differs" what
      in
      let ctl =
        Ef.Controller.create ~obs:(Ef_obs.Registry.create ()) ~name:"chain" ()
      in
      let ifaces = ref all_ifaces in
      let snap = ref (assemble !ifaces 0) in
      let work =
        Ef.Projection.Working.of_projection
          (Ef.Projection.project ~overrides !snap)
      in
      ignore (Ef.Controller.cycle ctl !snap);
      for step = 1 to 12 do
        let time_s = step * 30 in
        let pick () = fst base.(Ef_util.Rng.int rng n) in
        let rate_updates = ref [] and routes_changed = ref [] in
        let set p r =
          rate_updates := (p, r) :: !rate_updates;
          if r > 0.0 then Hashtbl.replace model p r else Hashtbl.remove model p
        in
        let bump p =
          if Hashtbl.mem best_gone p then Hashtbl.remove best_gone p
          else Hashtbl.replace best_gone p ();
          routes_changed := p :: !routes_changed
        in
        for _ = 1 to 1 + Ef_util.Rng.int rng 6 do
          let p = pick () in
          match Ef_util.Rng.int rng 6 with
          | 0 -> set p (1e6 +. Ef_util.Rng.float rng 5e8) (* move / re-announce *)
          | 1 -> set p 0.0 (* withdraw *)
          | 2 -> bump p
          | 3 ->
              set p (1e6 +. Ef_util.Rng.float rng 5e8);
              bump p
          | 4 ->
              (* repeated update: the later entry must win *)
              set p 0.0;
              set p (1e6 +. Ef_util.Rng.float rng 5e8)
          | _ -> set p (Ef_util.Rng.float rng 1e9 -. 5e8)
        done;
        (* interface events: remove one, bring one back, derate one *)
        (match Ef_util.Rng.int rng 4 with
        | 0 when List.length !ifaces > 1 ->
            let gone = List.nth !ifaces (Ef_util.Rng.int rng (List.length !ifaces)) in
            ifaces := List.filter (fun i -> i != gone) !ifaces
        | 1 ->
            let missing =
              List.filter
                (fun i ->
                  not
                    (List.exists (fun j -> N.Iface.id j = N.Iface.id i) !ifaces))
                all_ifaces
            in
            if missing <> [] then
              ifaces :=
                List.sort
                  (fun a b -> compare (N.Iface.id a) (N.Iface.id b))
                  (List.hd missing :: !ifaces)
        | 2 ->
            let id = N.Iface.id (List.nth !ifaces (Ef_util.Rng.int rng (List.length !ifaces))) in
            let f = 0.3 +. Ef_util.Rng.float rng 0.7 in
            ifaces :=
              Gen.derate_ifaces
                ~factor_of:(fun i -> if i = id then f else 1.0)
                !ifaces
        | _ -> ());
        let prev = !snap in
        snap :=
          C.Snapshot.patch ~obs:(Ef_obs.Registry.create ()) ~prev ~routes
            ~ifaces:!ifaces ~routes_changed:!routes_changed
            ~rate_updates:(List.rev !rate_updates) ~time_s ();
        let what = Printf.sprintf "seed %d step %d" seed step in
        same_content what !snap (assemble !ifaces time_s);
        let cold = Ef.Projection.project ~overrides !snap in
        conserved (what ^ " cold") !snap cold;
        let d = C.Snapshot.diff prev !snap in
        Ef.Projection.Working.apply_iface_delta work ~snapshot:!snap ~overrides
          ~delta:d.C.Snapshot.iface_changes ();
        Ef.Projection.Working.apply_dirty work ~snapshot:!snap ~overrides
          ~dirty:d.C.Snapshot.changes ();
        let warm = Ef.Projection.Working.seal work in
        conserved (what ^ " warm") !snap warm;
        if
          Ef.Projection.unroutable_millibps warm
          <> Ef.Projection.unroutable_millibps cold
          || List.exists
               (fun i ->
                 let iface_id = N.Iface.id i in
                 Ef.Projection.load_millibps warm ~iface_id
                 <> Ef.Projection.load_millibps cold ~iface_id)
               !ifaces
        then QCheck.Test.fail_reportf "%s: warm image differs from cold" what;
        let placed proj =
          List.map
            (fun (pl : Ef.Projection.placement) ->
              ( Bgp.Prefix.to_string pl.Ef.Projection.placed_prefix,
                pl.Ef.Projection.rate_bps,
                Bgp.Route.peer_id pl.Ef.Projection.route,
                pl.Ef.Projection.iface_id,
                pl.Ef.Projection.overridden ))
            (Ef.Projection.placements proj)
        in
        if placed warm <> placed cold then
          QCheck.Test.fail_reportf "%s: warm placements differ from cold" what;
        if
          not
            (List.equal Bgp.Prefix.equal
               (Ef.Projection.stale_overrides warm)
               (Ef.Projection.stale_overrides cold))
        then
          QCheck.Test.fail_reportf "%s: warm stale overrides differ from cold"
            what;
        let stats = Ef.Controller.cycle ctl !snap in
        conserved (what ^ " preferred") !snap (Ef.Controller.preferred stats);
        conserved (what ^ " enforced") !snap (Ef.Controller.enforced stats)
      done;
      Ef.Controller.incremental_hits ctl = 12)

(* --- Working: the lazily built per-interface index ----------------------- *)

(* Random op sequences over a few working views (an original and its
   copies), with ordered reads at random points, so some index slots are
   built before a mutation and some after. Every read must equal the
   view's own placement trie filtered to the interface and sorted by
   [compare_placement], and each view's trie must be exactly what its own
   ops left there — neither a slot nor a placement leaks between a copy
   and its original, whichever side built the slot first. *)
type index_view = { view : Ef.Projection.Working.t; mutable expect : string list }

let prop_working_index_lazy =
  QCheck.Test.make ~name:"working index = sorted trie filter" ~count:100
    QCheck.small_nat (fun seed ->
      let module W = Ef.Projection.Working in
      let rng = Ef_util.Rng.create (seed + 101) in
      let pick l = List.nth l (Ef_util.Rng.int rng (List.length l)) in
      let w = Lazy.force world in
      let universe = w.N.Topo_gen.all_prefixes in
      let all_ifaces = N.Pop.interfaces w.N.Topo_gen.pop in
      let ids = List.map N.Iface.id all_ifaces in
      let fresh_id = 1 + List.fold_left max (-1) ids in
      (* few distinct rates, so the prefix tiebreak is exercised *)
      let rate () = float_of_int (1 + Ef_util.Rng.int rng 8) *. 1e8 in
      let snap = ref (snapshot_of (List.map (fun p -> (p, rate ())) universe)) in
      let key (pl : Ef.Projection.placement) =
        Printf.sprintf "%s %.0f %d %b %d"
          (Bgp.Prefix.to_string pl.Ef.Projection.placed_prefix)
          pl.Ef.Projection.rate_bps pl.Ef.Projection.iface_id
          pl.Ef.Projection.overridden
          (Bgp.Route.peer_id pl.Ef.Projection.route)
      in
      let trie v = Ef.Projection.placements (W.seal v) in
      let keys v = List.sort compare (List.map key (trie v)) in
      let views =
        ref [| { view = W.of_projection (Ef.Projection.project !snap);
                 expect = [] } |]
      in
      !views.(0).expect <- keys !views.(0).view;
      let read_ids = -1 :: (fresh_id + 1) :: fresh_id :: ids in
      let read what v iface_id =
        if keys v.view <> v.expect then
          QCheck.Test.fail_reportf "%s: trie changed by another view" what;
        let want =
          trie v.view
          |> List.filter (fun pl -> pl.Ef.Projection.iface_id = iface_id)
          |> List.sort Ef.Projection.compare_placement
          |> List.map key
        in
        let got =
          if Ef_util.Rng.bool rng then W.placements_on v.view ~iface_id
          else List.of_seq (W.placements_seq v.view ~iface_id)
        in
        if List.map key got <> want then
          QCheck.Test.fail_reportf "%s: iface %d index differs from trie" what
            iface_id
      in
      let patch ?ifaces rate_updates =
        let prev = !snap in
        snap :=
          C.Snapshot.patch ~obs:(Ef_obs.Registry.create ()) ~prev ?ifaces
            ~rate_updates ~time_s:(C.Snapshot.time_s prev + 30) ();
        C.Snapshot.diff prev !snap
      in
      for step = 1 to 40 do
        let what = Printf.sprintf "seed %d step %d" seed step in
        let v = pick (Array.to_list !views) in
        let placed = trie v.view in
        (match Ef_util.Rng.int rng 8 with
        | 0 when placed <> [] ->
            let pl = pick placed in
            W.move v.view pl.Ef.Projection.placed_prefix
              ~to_route:pl.Ef.Projection.route ~to_iface:(pick ids)
        | 1 when placed <> [] ->
            (* a synthetic /24 outside the world, as /24 splitting adds *)
            let prefix =
              Bgp.Prefix.make
                (Bgp.Ipv4.of_string
                   (Printf.sprintf "198.18.%d.0" (Ef_util.Rng.int rng 64)))
                24
            in
            if W.placement_of v.view prefix = None then
              W.add_placement v.view ~prefix ~rate_bps:(rate ())
                ~route:(pick placed).Ef.Projection.route ~iface_id:(pick ids)
                ~overridden:(Ef_util.Rng.int rng 2 = 0)
        | 2 when placed <> [] ->
            W.remove_placement v.view (pick placed).Ef.Projection.placed_prefix
        | 3 ->
            let updates =
              List.init (1 + Ef_util.Rng.int rng 6) (fun _ ->
                  ( pick universe,
                    if Ef_util.Rng.int rng 4 = 0 then 0.0 else rate () ))
            in
            let d = patch updates in
            W.apply_dirty v.view ~snapshot:!snap ~dirty:d.C.Snapshot.changes ()
        | 4 ->
            (* drop a live interface, bring a dropped one back, or add an
               id past the original universe *)
            let live = C.Snapshot.ifaces !snap in
            let live_ids = List.map N.Iface.id live in
            let ifaces =
              match Ef_util.Rng.int rng 3 with
              | 0 when List.length live > 1 ->
                  let gone = N.Iface.id (pick live) in
                  List.filter (fun i -> N.Iface.id i <> gone) live
              | 1 -> (
                  match
                    List.filter
                      (fun i -> not (List.mem (N.Iface.id i) live_ids))
                      all_ifaces
                  with
                  | [] -> live
                  | missing -> pick missing :: live)
              | _ when not (List.mem fresh_id live_ids) ->
                  N.Iface.make ~id:fresh_id ~name:"fresh" ~capacity_bps:1e10
                    ~shared:false
                  :: live
              | _ -> live
            in
            let d = patch ~ifaces [] in
            W.apply_iface_delta v.view ~snapshot:!snap
              ~delta:d.C.Snapshot.iface_changes ()
        | 5 when Array.length !views < 4 ->
            views :=
              Array.append !views [| { view = W.copy v.view; expect = v.expect } |]
        | _ -> read what v (pick read_ids));
        v.expect <- keys v.view;
        if Ef_util.Rng.int rng 2 = 0 then
          read what (pick (Array.to_list !views)) (pick read_ids)
      done;
      Array.iter (fun v -> List.iter (read "final" v) read_ids) !views;
      true)

(* --- Allocator: ordered slots carried in the warm image ------------------ *)

(* Rng-seeded sequences of rate churn, route changes and interface add,
   remove and derate, under a threshold low enough that relief runs, so
   slots ride the warm image from step to step through every kind of
   warm patch. After each step the carried image's ordered reads must
   equal those of a slot-free copy (which builds each slot fresh from the
   placement trie), it must carry exactly the slots of the interfaces
   overloaded before relief, and the warm run must equal a cold
   [Allocator.run] of the same snapshot. *)
let prop_warm_slots_equal_fresh =
  QCheck.Test.make ~name:"carried slots = fresh build, warm run = cold"
    ~count:25 QCheck.small_nat (fun seed ->
      let module W = Ef.Projection.Working in
      let rng = Ef_util.Rng.create (seed + 29) in
      let pick l = List.nth l (Ef_util.Rng.int rng (List.length l)) in
      let w = Gen.world (5000 + seed) in
      let pop = w.N.Topo_gen.pop in
      let base = Array.of_list (Gen.rates_of_world w) in
      let n = Array.length base in
      let all_ifaces = N.Pop.interfaces pop in
      let fresh_id = 1 + List.fold_left (fun m i -> max m (N.Iface.id i)) (-1) all_ifaces in
      let best_gone = Hashtbl.create 8 in
      let routes p =
        let rs = Bgp.Rib.ranked (N.Pop.rib pop) p in
        if Hashtbl.mem best_gone p then match rs with [] -> [] | _ :: tl -> tl
        else rs
      in
      let iface_of_peer ifaces peer_id =
        match N.Pop.peer pop peer_id with
        | None -> None
        | Some _ ->
            let id = N.Iface.id (N.Pop.iface_of_peer pop ~peer_id) in
            List.find_opt (fun i -> N.Iface.id i = id) ifaces
      in
      let key (pl : Ef.Projection.placement) =
        Printf.sprintf "%s %h %d %b %d"
          (Bgp.Prefix.to_string pl.Ef.Projection.placed_prefix)
          pl.Ef.Projection.rate_bps pl.Ef.Projection.iface_id
          pl.Ef.Projection.overridden
          (Bgp.Route.peer_id pl.Ef.Projection.route)
      in
      let ifaces = ref all_ifaces in
      let snap =
        ref
          (C.Snapshot.assemble ~obs:(Ef_obs.Registry.create ()) ~routes
             ~iface_of_peer:(iface_of_peer !ifaces) ~ifaces:!ifaces
             ~prefix_rates:(Array.to_list base) ~time_s:0 ())
      in
      let config =
        (* 0.7, or below the busiest interface of a world that never
           reaches it (seed 48 peaks at 0.66), so the sequence carries
           slots from its first step *)
        let peak =
          let proj = Ef.Projection.project !snap in
          List.fold_left
            (fun m i -> Float.max m (Ef.Projection.utilization proj i))
            0.0 !ifaces
        in
        let threshold = if peak > 0.7 then 0.7 else 0.9 *. peak in
        let c = { Ef.Config.default with overload_threshold = threshold } in
        if seed mod 2 = 0 then c else { c with granularity = Split_24 }
      in
      let warm = ref None and carried = ref 0 in
      for step = 0 to 15 do
        let what = Printf.sprintf "seed %d step %d" seed step in
        if step > 0 then begin
          let rate_updates =
            List.init (1 + Ef_util.Rng.int rng 12) (fun _ ->
                let p, r = base.(Ef_util.Rng.int rng n) in
                if Ef_util.Rng.int rng 6 = 0 then (p, 0.0)
                else (p, r *. (0.5 +. Ef_util.Rng.float rng 1.0)))
          in
          let routes_changed =
            List.sort_uniq Bgp.Prefix.compare
              (List.init (Ef_util.Rng.int rng 3) (fun _ ->
                   fst base.(Ef_util.Rng.int rng n)))
          in
          List.iter
            (fun p ->
              if Hashtbl.mem best_gone p then Hashtbl.remove best_gone p
              else Hashtbl.replace best_gone p ())
            routes_changed;
          (match Ef_util.Rng.int rng 5 with
          | 0 when List.length !ifaces > 1 ->
              let gone = N.Iface.id (pick !ifaces) in
              ifaces := List.filter (fun i -> N.Iface.id i <> gone) !ifaces
          | 1 -> (
              let live = List.map N.Iface.id !ifaces in
              match
                List.filter
                  (fun i -> not (List.mem (N.Iface.id i) live))
                  all_ifaces
              with
              | [] -> ()
              | missing -> ifaces := pick missing :: !ifaces)
          | 2 ->
              let id = N.Iface.id (pick !ifaces) in
              let f = 0.5 +. Ef_util.Rng.float rng 0.5 in
              ifaces :=
                Gen.derate_ifaces
                  ~factor_of:(fun i -> if i = id then f else 1.0)
                  !ifaces
          | 3 when not (List.exists (fun i -> N.Iface.id i = fresh_id) !ifaces)
            ->
              (* past the id universe: the image's arrays grow *)
              ifaces :=
                N.Iface.make ~id:fresh_id ~name:"fresh" ~capacity_bps:1e10
                  ~shared:false
                :: !ifaces
          | _ -> ());
          ifaces :=
            List.sort (fun a b -> compare (N.Iface.id a) (N.Iface.id b)) !ifaces;
          snap :=
            C.Snapshot.patch ~obs:(Ef_obs.Registry.create ()) ~prev:!snap
              ~routes ~ifaces:!ifaces ~routes_changed ~rate_updates
              ~time_s:(step * 30) ()
        end;
        if step > 0 && not (Ef.Allocator.warm_valid ?warm:!warm !snap) then
          QCheck.Test.fail_reportf "%s: left the warm path" what;
        let r, wm =
          Ef.Allocator.run_warm ~obs:(Ef_obs.Registry.create ()) ~config
            ?warm:!warm !snap
        in
        warm := Some wm;
        let cold =
          Ef.Allocator.run ~obs:(Ef_obs.Registry.create ()) ~config !snap
        in
        let residual (r : Ef.Allocator.result) =
          List.map (fun (i, u) -> (N.Iface.id i, u)) r.Ef.Allocator.residual
        in
        let universe = C.Snapshot.max_iface_id !snap + 1 in
        let loads proj =
          List.init universe (fun iface_id ->
              Ef.Projection.load_millibps proj ~iface_id)
        in
        if
          not
            (List.equal Ef.Override.equal cold.Ef.Allocator.overrides
               r.Ef.Allocator.overrides
            && residual cold = residual r
            && cold.Ef.Allocator.moves_considered
               = r.Ef.Allocator.moves_considered
            && cold.Ef.Allocator.splits = r.Ef.Allocator.splits
            && loads cold.Ef.Allocator.final = loads r.Ef.Allocator.final)
        then QCheck.Test.fail_reportf "%s: warm run differs from cold" what;
        let img = Ef.Allocator.warm_image wm in
        let hot =
          Ef.Projection.overloaded_by r.Ef.Allocator.before
            ~threshold_of:(fun iface_id ->
              Ef.Config.threshold_for config ~iface_id)
          |> List.map (fun (i, _) -> N.Iface.id i)
          |> List.sort compare
        in
        if W.indexed img <> hot then
          QCheck.Test.fail_reportf "%s: carried slots are not the overloaded set"
            what;
        carried := !carried + List.length hot;
        let fresh = W.of_projection (W.seal img) in
        for iface_id = -1 to universe do
          if
            List.map key (W.placements_on img ~iface_id)
            <> List.map key (W.placements_on fresh ~iface_id)
          then
            QCheck.Test.fail_reportf "%s: iface %d carried slot differs" what
              iface_id
        done
      done;
      (* the sequence must actually have carried slots *)
      !carried > 0)

(* --- Projection.redecide: the engine's actual placement ------------------ *)

(* The engine derives its actual placement by re-deciding only the active
   overrides' prefixes on the BGP-preferred projection. For any override
   set, the result must equal a cold projection under that set, field
   for field. Each
   override targets one of its prefix's own candidates or a route drawn
   from the whole world, whose peer often does not offer the prefix (a
   stale target); the prefix is drawn from the whole world too, so some
   are not rated in the snapshot, and prefixes may repeat, with different
   targets. *)
let prop_redecide_equals_cold =
  QCheck.Test.make ~name:"redecide of the preferred projection = cold project"
    ~count:200
    QCheck.(
      pair arb_rates
        (list_of_size Gen.(int_range 0 30) (triple small_nat bool small_nat)))
    (fun (rates, picks) ->
      let w = Lazy.force world in
      let snap = snapshot_of rates in
      let prefixes = Array.of_list w.N.Topo_gen.all_prefixes in
      let pool =
        Array.of_list
          (List.concat_map (C.Snapshot.routes snap) w.N.Topo_gen.all_prefixes)
      in
      let overrides =
        List.map
          (fun (i, own, j) ->
            let prefix = prefixes.(i mod Array.length prefixes) in
            let target =
              match C.Snapshot.routes snap prefix with
              | _ :: _ as rs when own -> List.nth rs (j mod List.length rs)
              | _ -> pool.(j mod Array.length pool)
            in
            Ef.Override.make ~prefix ~target ~from_iface:0 ~to_iface:0
              ~preference_level:1 ~rate_bps:0.0)
          picks
      in
      let lookup = Ef.Override.lookup overrides in
      let keys = List.map (fun (o : Ef.Override.t) -> o.Ef.Override.prefix) overrides in
      Ef.Projection.redecide (Ef.Projection.project snap) snap ~overrides:lookup
        keys
      = Ef.Projection.project ~overrides:lookup snap)

(* --- Controller: the enforced projection ---------------------------------- *)

(* A healthy cycle derives its enforced projection from the allocator's
   final image, re-deciding only the prefixes where the two can differ:
   the overrides hysteresis holds against the allocator's wish (held
   retargets, deferred releases), the guard's drops and the /24 split
   keys. Seeded multi-cycle sequences produce each of those — rate churn,
   withdraw and re-announce, candidate cuts under active overrides (stale
   targets), a hold time, shedding guard budgets, Split_24 — on warm
   cycles and on the odd unlinked (cold) one. After every cycle the
   enforced projection must equal a cold [Projection.project] of the
   active set: placements, loads, the unroutable sum, the stale list, the
   overridden aggregate, and then the whole record (the unplaced pool
   included — the tries are canonical, so equal content is equal shape). *)
let prop_enforced_equals_cold =
  QCheck.Test.make
    ~name:"enforced projection = cold projection of the active set"
    ~count:40 QCheck.small_nat (fun seed ->
      let rng = Ef_util.Rng.create (seed + 101) in
      let w = Gen.world (6000 + seed) in
      let pop = w.N.Topo_gen.pop in
      let base = Array.of_list (Gen.rates_of_world w) in
      let n = Array.length base in
      (* candidate cuts, toggled by route churn: [`Best] withdraws the
         preferred route, [`Alts] every alternate — which strands an
         override that targets one of them *)
      let cut = Hashtbl.create 8 in
      let routes p =
        let rs = Bgp.Rib.ranked (N.Pop.rib pop) p in
        match (Hashtbl.find_opt cut p, rs) with
        | Some `Best, _ :: tl -> tl
        | Some `Alts, r :: _ -> [ r ]
        | _ -> rs
      in
      let ifaces = N.Pop.interfaces pop in
      let iface_of_peer peer_id =
        match N.Pop.peer pop peer_id with
        | None -> None
        | Some _ -> Some (N.Pop.iface_of_peer pop ~peer_id)
      in
      let model = Hashtbl.create 64 in
      Array.iter (fun (p, r) -> Hashtbl.replace model p r) base;
      let assemble time_s =
        C.Snapshot.assemble ~obs:(Ef_obs.Registry.create ()) ~routes
          ~iface_of_peer ~ifaces
          ~prefix_rates:(Hashtbl.fold (fun p r acc -> (p, r) :: acc) model [])
          ~time_s ()
      in
      let snap = ref (assemble 0) in
      let threshold = 0.7 in
      let config =
        let c =
          {
            Ef.Config.default with
            overload_threshold = threshold;
            min_hold_s = 60;
          }
        in
        let c =
          if seed mod 2 = 0 then c
          else
            (* a /24 split happens only once no whole placement fits
               anywhere: leave every interface that is not overloaded one
               percent of headroom, which fits children but few parents
               (and a release margin below every such threshold) *)
            let preferred = Ef.Projection.project !snap in
            {
              c with
              granularity = Split_24;
              release_margin = 0.005;
              iface_thresholds =
                List.filter_map
                  (fun i ->
                    let u = Ef.Projection.utilization preferred i in
                    if u <= threshold then Some (N.Iface.id i, u +. 0.01)
                    else None)
                  ifaces;
            }
        in
        if seed mod 3 = 2 then c
        else
          {
            c with
            guard =
              {
                Ef.Guard.max_overrides = Some (2 + (seed mod 5));
                max_detour_fraction = Some 0.1;
              };
          }
      in
      let ctl =
        Ef.Controller.create ~config ~obs:(Ef_obs.Registry.create ())
          ~name:"prop" ()
      in
      for step = 0 to 11 do
        let what = Printf.sprintf "seed %d step %d" seed step in
        let time_s = step * 30 in
        if step > 0 then begin
          let rate_updates =
            List.init (1 + Ef_util.Rng.int rng 10) (fun _ ->
                let p, r = base.(Ef_util.Rng.int rng n) in
                if Ef_util.Rng.int rng 6 = 0 then (p, 0.0)
                else (p, r *. (0.5 +. Ef_util.Rng.float rng 1.0)))
          in
          List.iter
            (fun (p, r) ->
              if r <= 0.0 then Hashtbl.remove model p
              else Hashtbl.replace model p r)
            rate_updates;
          (* cut or restore candidates, half the time under an active
             override *)
          let active =
            Array.of_list
              (List.map
                 (fun (o : Ef.Override.t) -> o.Ef.Override.prefix)
                 (Ef.Controller.active_overrides ctl))
          in
          let routes_changed =
            List.sort_uniq Bgp.Prefix.compare
              (List.init (Ef_util.Rng.int rng 3) (fun _ ->
                   if Array.length active > 0 && Ef_util.Rng.int rng 2 = 0
                   then active.(Ef_util.Rng.int rng (Array.length active))
                   else fst base.(Ef_util.Rng.int rng n)))
          in
          List.iter
            (fun p ->
              if Hashtbl.mem cut p then Hashtbl.remove cut p
              else
                Hashtbl.replace cut p
                  (if Ef_util.Rng.int rng 2 = 0 then `Best else `Alts))
            routes_changed;
          snap :=
            if Ef_util.Rng.int rng 8 = 0 then assemble time_s
            else
              C.Snapshot.patch ~obs:(Ef_obs.Registry.create ()) ~prev:!snap
                ~routes ~routes_changed ~rate_updates ~time_s ()
        end;
        let stats = Ef.Controller.cycle ctl !snap in
        let enforced = Ef.Controller.enforced stats in
        let cold =
          Ef.Projection.project
            ~overrides:
              (Ef.Override.lookup (Ef.Controller.overrides_enforced stats))
            !snap
        in
        let universe = C.Snapshot.max_iface_id !snap + 1 in
        let loads p =
          List.init universe (fun iface_id ->
              Ef.Projection.load_millibps p ~iface_id)
        in
        let differs field =
          QCheck.Test.fail_reportf "%s: enforced %s differ from cold" what
            field
        in
        if Ef.Projection.placements enforced <> Ef.Projection.placements cold
        then differs "placements";
        if loads enforced <> loads cold then differs "loads";
        if
          Ef.Projection.unroutable_millibps enforced
          <> Ef.Projection.unroutable_millibps cold
        then differs "unplaced sums";
        if
          Ef.Projection.stale_overrides enforced
          <> Ef.Projection.stale_overrides cold
        then differs "stale lists";
        if
          Ef.Projection.overridden_bps enforced
          <> Ef.Projection.overridden_bps cold
        then differs "overridden aggregates";
        if enforced <> cold then differs "records"
      done;
      true)

(* --- Path_store: the ring is the last-[window]-samples queue ----------- *)

(* interleaved observations over two prefixes x two peers, long enough
   that every path wraps its ring; after each one the store must answer
   exactly as a list of each path's last [window] samples does *)
let prop_path_store_is_last_window =
  let module Ps = Ef_altpath.Path_store in
  let prefixes = [| Helpers.prefix "10.0.0.0/24"; Helpers.prefix "10.1.0.0/24" |] in
  let gen =
    QCheck.Gen.(
      list_size (int_range 300 1000)
        (triple (int_bound 1) (int_bound 1) (int_bound 400)))
  in
  QCheck.Test.make ~name:"path store ring = last-window model" ~count:50
    (QCheck.make gen) (fun steps ->
      let store = Ps.create () in
      (* model.(prefix).(peer): newest first, at most [window] samples *)
      let model = Array.make_matrix 2 2 [] in
      let median = function
        | [] -> None
        | l ->
            let arr = Array.of_list (List.rev l) in
            Array.sort compare arr;
            let n = Array.length arr in
            Some
              (if n mod 2 = 1 then arr.(n / 2)
               else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0)
      in
      List.iteri
        (fun step (pi, peer, v) ->
          (* quarter-millisecond samples: repeats, and exact halves *)
          let rtt = float_of_int v /. 4.0 in
          Ps.observe store ~prefix:prefixes.(pi) ~peer_id:peer ~rtt_ms:rtt;
          model.(pi).(peer) <-
            List.filteri (fun i _ -> i < Ps.window) (rtt :: model.(pi).(peer));
          Array.iteri
            (fun pi prefix ->
              for peer = 0 to 1 do
                let samples = model.(pi).(peer) in
                if Ps.sample_count store ~prefix ~peer_id:peer
                   <> List.length samples
                then QCheck.Test.fail_reportf "step %d: sample count" step;
                if
                  not
                    (Option.equal Float.equal
                       (Ps.median_rtt_ms store ~prefix ~peer_id:peer)
                       (median samples))
                then QCheck.Test.fail_reportf "step %d: median" step
              done;
              let expected =
                match (median model.(pi).(0), median model.(pi).(1)) with
                | Some p, Some a ->
                    Some
                      {
                        Ps.cmp_prefix = prefix;
                        primary_peer = 0;
                        primary_median_ms = p;
                        best_alt_peer = 1;
                        best_alt_median_ms = a;
                        delta_ms = a -. p;
                      }
                | _ -> None
              in
              if
                Ps.compare_paths store ~prefix ~primary:0 ~alternates:[ 1 ]
                <> expected
              then QCheck.Test.fail_reportf "step %d: comparison" step)
            prefixes)
        steps;
      true)

let suite =
  [ fuzz_bgp_codec; fuzz_sflow_codec; fuzz_mrt_codec; fuzz_bmp_codec ]
  @ List.map QCheck_alcotest.to_alcotest
    [
      prop_projection_conserves;
      prop_projection_move_conserves;
      prop_guard_clamp_respects_budgets;
      prop_allocator_overrides_unique_prefixes;
      prop_hysteresis_never_early_release;
      prop_hysteresis_tracks_when_disabled;
      prop_trace_roundtrip;
      prop_controller_enforced_within_thresholds;
      prop_zipf_mass;
      prop_zipf_rank_order;
      prop_zipf_sample_deterministic;
      prop_diff_patch_roundtrip;
      prop_diff_empty;
      prop_diff_unlinked_fuzzed;
      prop_diff_iface_roundtrip;
      prop_patch_chain_equals_assemble;
      prop_working_index_lazy;
      prop_warm_slots_equal_fresh;
      prop_redecide_equals_cold;
      prop_enforced_equals_cold;
      prop_path_store_is_last_window;
    ]
