module Bgp = Ef_bgp
open Ef_util

type as_kind =
  | Eyeball
  | Regional
  | Small_stub

let as_kind_to_string = function
  | Eyeball -> "eyeball"
  | Regional -> "regional"
  | Small_stub -> "small-stub"

type as_info = {
  asn : Bgp.Asn.t;
  kind : as_kind;
  as_region : Region.t;
  as_prefixes : Bgp.Prefix.t list;
  weight : float;
  providers : Bgp.Asn.t list;
}

type config = {
  seed : int;
  pop_name : string;
  pop_region : Region.t;
  self_asn : Bgp.Asn.t;
  n_eyeball : int;
  n_regional : int;
  n_small : int;
  n_transits : int;
  n_private_peers : int;
  n_public_peers : int;
  route_server : bool;
  rs_member_fraction : float;
  zipf_s : float;
  total_peak_gbps : float;
  transit_capacity_gbps : float;
  public_port_gbps : float;
  headroom_lo : float;
  headroom_hi : float;
  import_policy : Ef_policy.t option;
  community_signaling : bool;
}

let default_config =
  {
    seed = 42;
    pop_name = "pop-default";
    pop_region = Region.Na_east;
    self_asn = Bgp.Asn.of_int 64500;
    n_eyeball = 20;
    n_regional = 40;
    n_small = 120;
    n_transits = 2;
    n_private_peers = 12;
    n_public_peers = 25;
    route_server = true;
    rs_member_fraction = 0.5;
    zipf_s = 1.0;
    total_peak_gbps = 900.0;
    transit_capacity_gbps = 1600.0;
    public_port_gbps = 200.0;
    headroom_lo = 0.55;
    headroom_hi = 1.35;
    import_policy = None;
    community_signaling = false;
  }

let small_config =
  {
    default_config with
    seed = 7;
    pop_name = "pop-test";
    n_eyeball = 3;
    n_regional = 4;
    n_small = 8;
    n_transits = 2;
    n_private_peers = 2;
    n_public_peers = 3;
    total_peak_gbps = 40.0;
    transit_capacity_gbps = 100.0;
    public_port_gbps = 20.0;
  }

type world = {
  pop : Pop.t;
  ases : as_info list;
  prefix_weight : Bgp.Prefix.t -> float;
  prefix_origin : Bgp.Prefix.t -> Bgp.Asn.t option;
  origin_region : Bgp.Prefix.t -> Region.t;
  all_prefixes : Bgp.Prefix.t list;
  total_peak_bps : float;
}

(* Inbound-TE signal communities attached by public peers when
   [community_signaling] is on (the convention of community-driven
   inbound engineering): "prefer" on a peer's own prefixes, "backup" on
   the customer prefixes it re-announces. Policies match on these. *)
let signal_prefer = Bgp.Community.make 65010 80
let signal_backup = Bgp.Community.make 65010 20

(* region name -> origin prefix blocks, for Ef_policy region predicates *)
let regions_of_ases ases =
  List.filter_map
    (fun r ->
      match
        List.concat_map
          (fun a -> if Region.equal a.as_region r then a.as_prefixes else [])
          ases
      with
      | [] -> None
      | blocks -> Some (Region.to_string r, blocks))
    Region.all

let standard_port_sizes_gbps = [ 10.; 20.; 40.; 100.; 200.; 400.; 800. ]

(* LAG bundles: multiples of 10G up to 100G, multiples of 100G beyond —
   how interconnect capacity actually gets provisioned. *)
let round_up_to_port gbps =
  if gbps <= 100.0 then 10.0 *. Float.ceil (gbps /. 10.0)
  else 100.0 *. Float.ceil (gbps /. 100.0)

(* --- prefix allocation ------------------------------------------------ *)

(* Each AS owns a /14 carved out of 64.0.0.0/2; prefixes are aligned
   sub-blocks of lengths /20../24. *)
let block_base = Int32.shift_left 64l 24 (* 64.0.0.0 *)
let block_bits = 18 (* /14 per AS *)

let alloc_prefixes rng ~as_index ~count =
  let base =
    Int32.add block_base (Int32.of_int (as_index lsl block_bits))
  in
  let lens = [| 20; 21; 22; 23; 24 |] in
  let len_weights = [| 1; 2; 3; 3; 3 |] in
  let total_w = Array.fold_left ( + ) 0 len_weights in
  let draw_len () =
    let r = Rng.int rng total_w in
    let rec go i acc =
      let acc = acc + len_weights.(i) in
      if r < acc then lens.(i) else go (i + 1) acc
    in
    go 0 0
  in
  let cursor = ref 0 in
  let out = ref [] in
  (try
     for _ = 1 to count do
       let len = draw_len () in
       let size = 1 lsl (32 - len) in
       let aligned = (!cursor + size - 1) / size * size in
       if aligned + size > 1 lsl block_bits then raise Exit;
       cursor := aligned + size;
       let addr = Bgp.Ipv4.of_int32 (Int32.add base (Int32.of_int aligned)) in
       out := Bgp.Prefix.make addr len :: !out
     done
   with Exit -> ());
  List.rev !out

(* --- AS universe ------------------------------------------------------ *)

let gen_region rng ~home ~home_bias =
  if Rng.chance rng home_bias then home
  else Rng.pick rng (Array.of_list Region.all)

let transit_names = [| "cogent"; "telia"; "lumen"; "ntt"; "he"; "tata" |]

let generate config =
  let rng = Rng.create config.seed in
  let rng_topo = Rng.split rng in
  let rng_weights = Rng.split rng in
  let rng_paths = Rng.split rng in
  let rng_capacity = Rng.split rng in

  (* 1. the AS universe: eyeballs, regionals, small stubs ---------------- *)
  let n_total = config.n_eyeball + config.n_regional + config.n_small in
  let kind_of_index i =
    if i < config.n_eyeball then Eyeball
    else if i < config.n_eyeball + config.n_regional then Regional
    else Small_stub
  in
  let asn_of_index i =
    match kind_of_index i with
    | Eyeball -> Bgp.Asn.of_int (100 + i)
    | Regional -> Bgp.Asn.of_int (1000 + i)
    | Small_stub -> Bgp.Asn.of_int (5000 + i)
  in
  let prefix_count_of_kind = function
    | Eyeball -> Rng.int_in rng_topo 8 40
    | Regional -> Rng.int_in rng_topo 4 12
    | Small_stub -> Rng.int_in rng_topo 1 4
  in
  let home_bias = function
    | Eyeball -> 0.7
    | Regional -> 0.6
    | Small_stub -> 0.35
  in
  let zipf = Zipf.create ~n:n_total ~s:config.zipf_s in
  let base_ases =
    List.init n_total (fun i ->
        let kind = kind_of_index i in
        let asn = asn_of_index i in
        let as_region =
          gen_region rng_topo ~home:config.pop_region ~home_bias:(home_bias kind)
        in
        let as_prefixes =
          alloc_prefixes rng_topo ~as_index:i ~count:(prefix_count_of_kind kind)
        in
        (i, { asn; kind; as_region; as_prefixes; weight = 0.0; providers = [] }))
  in
  (* traffic weight: Zipf over the AS list (eyeballs occupy top ranks) *)
  let weights = Zipf.weights zipf in
  let base_ases =
    List.map (fun (i, a) -> (i, { a with weight = weights.(i) })) base_ases
  in
  (* providers for small stubs: 1–2 upstreams among regionals/eyeballs *)
  let eyeballs = List.filter (fun (_, a) -> a.kind = Eyeball) base_ases in
  let regionals = List.filter (fun (_, a) -> a.kind = Regional) base_ases in
  let provider_pool =
    Array.of_list
      (List.map (fun (_, a) -> a.asn) regionals
      @ List.map (fun (_, a) -> a.asn) eyeballs)
  in
  let base_ases =
    List.map
      (fun (i, a) ->
        match a.kind with
        | Small_stub when Array.length provider_pool > 0 ->
            let n = if Rng.chance rng_topo 0.3 then 2 else 1 in
            let chosen =
              Rng.sample_without_replacement rng_topo n provider_pool
            in
            (i, { a with providers = Array.to_list chosen })
        | Small_stub | Eyeball | Regional -> (i, a))
      base_ases
  in
  let ases = List.map snd base_ases in

  (* per-prefix weights: intra-AS Zipf, normalised to the AS weight ------ *)
  ignore rng_weights;
  let prefix_weight_trie =
    List.fold_left
      (fun trie a ->
        match a.as_prefixes with
        | [] -> trie
        | ps ->
            let z = Zipf.create ~n:(List.length ps) ~s:0.8 in
            List.fold_left
              (fun (trie, rank) p ->
                ( Bgp.Ptrie.add p (a.weight *. Zipf.probability z rank) trie,
                  rank + 1 ))
              (trie, 1) ps
            |> fst)
      Bgp.Ptrie.empty ases
  in
  let origin_trie =
    List.fold_left
      (fun trie a ->
        List.fold_left (fun trie p -> Bgp.Ptrie.add p a.asn trie) trie a.as_prefixes)
      Bgp.Ptrie.empty ases
  in
  let region_of_asn =
    let tbl = Hashtbl.create n_total in
    List.iter (fun a -> Hashtbl.replace tbl (Bgp.Asn.to_int a.asn) a.as_region) ases;
    tbl
  in

  (* 2. the PoP: interfaces and peers ------------------------------------ *)
  let pop =
    Pop.create ~name:config.pop_name ~region:config.pop_region
      ~asn:config.self_asn ()
  in
  (* the import route-map: the DSL program when the config carries one,
     else the standard import (its clause list pinned by test) — compiled
     once, against the generated AS universe's region map, before any
     route is ingested *)
  let policy =
    let env =
      Ef_policy.env ~regions:(regions_of_ases ases) ~self_asn:config.self_asn ()
    in
    match config.import_policy with
    | Some p -> Ef_policy.Compile.route_map env p
    | None ->
        Ef_policy.Compile.route_map env
          (Ef_policy.standard_import ~self_asn:config.self_asn)
  in
  let next_peer_id = ref 0 in
  let fresh_peer ~name ~asn ~kind =
    let id = !next_peer_id in
    incr next_peer_id;
    let session_addr = Bgp.Ipv4.of_octets 172 16 (id lsr 8) (id land 0xFF) in
    let router_id = Bgp.Ipv4.of_octets 10 99 (id lsr 8) (id land 0xFF) in
    Bgp.Peer.make ~id ~name ~asn ~kind ~router_id ~session_addr
  in

  (* transit providers *)
  let transits =
    List.init config.n_transits (fun i ->
        let name = transit_names.(i mod Array.length transit_names) in
        let peer =
          fresh_peer ~name ~asn:(Bgp.Asn.of_int (10 + i)) ~kind:Bgp.Peer.Transit
        in
        let iface =
          Pop.add_interface pop ~name:("transit-" ^ name)
            ~capacity_bps:(Units.gbps config.transit_capacity_gbps)
            ~shared:false
        in
        Pop.add_peer pop peer ~iface ~policy;
        peer)
  in

  (* helper: expected served weight of a peer AS = own + single-homed
     customers (used for capacity sizing) *)
  let served_weight a =
    let customers =
      List.filter (fun c -> List.exists (Bgp.Asn.equal a.asn) c.providers) ases
    in
    a.weight +. List.fold_left (fun acc c -> acc +. c.weight) 0.0 customers
  in

  (* private peers: the top-weight eyeballs *)
  let private_ases =
    List.filteri (fun i _ -> i < config.n_private_peers) (List.map snd eyeballs)
  in
  let private_peers =
    List.map
      (fun a ->
        let peer =
          fresh_peer
            ~name:(Printf.sprintf "pni-as%d" (Bgp.Asn.to_int a.asn))
            ~asn:a.asn ~kind:Bgp.Peer.Private_peer
        in
        let peak_gbps = served_weight a *. config.total_peak_gbps in
        let headroom =
          Rng.float rng_capacity (config.headroom_hi -. config.headroom_lo)
          +. config.headroom_lo
        in
        let capacity_gbps = round_up_to_port (Float.max 1.0 (peak_gbps *. headroom)) in
        let iface =
          Pop.add_interface pop
            ~name:(Printf.sprintf "pni-as%d" (Bgp.Asn.to_int a.asn))
            ~capacity_bps:(Units.gbps capacity_gbps)
            ~shared:false
        in
        Pop.add_peer pop peer ~iface ~policy;
        (peer, a))
      private_ases
  in

  (* the shared IXP port: public peers and the route server *)
  let ixp_port =
    Pop.add_interface pop ~name:"ixp-port"
      ~capacity_bps:(Units.gbps config.public_port_gbps)
      ~shared:true
  in
  let public_ases =
    List.filteri (fun i _ -> i < config.n_public_peers) (List.map snd regionals)
  in
  let public_peers =
    List.map
      (fun a ->
        let peer =
          fresh_peer
            ~name:(Printf.sprintf "ixp-as%d" (Bgp.Asn.to_int a.asn))
            ~asn:a.asn ~kind:Bgp.Peer.Public_peer
        in
        Pop.add_peer pop peer ~iface:ixp_port ~policy;
        (peer, a))
      public_ases
  in
  let rs_peer =
    if config.route_server then begin
      let peer =
        fresh_peer ~name:"route-server" ~asn:(Bgp.Asn.of_int 64600)
          ~kind:Bgp.Peer.Route_server
      in
      Pop.add_peer pop peer ~iface:ixp_port ~policy;
      Some peer
    end
    else None
  in

  (* 3. announcements ----------------------------------------------------- *)
  let announce ?(communities = []) peer prefix path ~med =
    let attrs =
      Bgp.Attrs.make ~med ~communities
        ~as_path:(Bgp.As_path.of_list path)
        ~next_hop:peer.Bgp.Peer.session_addr ()
    in
    ignore (Pop.announce pop ~peer_id:(Bgp.Peer.id peer) prefix attrs)
  in
  (* inbound-TE communities on public-peer announcements, when enabled *)
  let prefer_signal =
    if config.community_signaling then [ signal_prefer ] else []
  in
  let backup_signal =
    if config.community_signaling then [ signal_backup ] else []
  in

  (* transit: full table; synthetic tier-2 fillers lengthen some paths *)
  List.iteri
    (fun ti transit ->
      let t_asn = Bgp.Peer.asn transit in
      List.iter
        (fun a ->
          (* per (transit, AS): path shape and MED are drawn once *)
          let extra_hop =
            if Rng.chance rng_paths 0.3 then
              [ Bgp.Asn.of_int (60000 + ((ti * 97) + (Bgp.Asn.to_int a.asn mod 89))) ]
            else []
          in
          let via_provider =
            match (a.kind, a.providers) with
            | Small_stub, p :: _ -> [ p ]
            | (Small_stub | Eyeball | Regional), _ -> []
          in
          let path = (t_asn :: extra_hop) @ via_provider @ [ a.asn ] in
          let med = Some (Rng.int rng_paths 30) in
          List.iter (fun prefix -> announce transit prefix path ~med) a.as_prefixes)
        ases)
    transits;

  (* private peers: own prefixes + their single-homed customers *)
  List.iter
    (fun (peer, a) ->
      List.iter (fun p -> announce peer p [ a.asn ] ~med:None) a.as_prefixes;
      List.iter
        (fun c ->
          if List.exists (Bgp.Asn.equal a.asn) c.providers then
            List.iter
              (fun p -> announce peer p [ a.asn; c.asn ] ~med:None)
              c.as_prefixes)
        ases)
    private_peers;

  (* public peers: same shape over the shared port; with signaling on,
     own prefixes carry "prefer" and re-announced customers "backup" *)
  List.iter
    (fun (peer, a) ->
      List.iter
        (fun p -> announce ~communities:prefer_signal peer p [ a.asn ] ~med:None)
        a.as_prefixes;
      List.iter
        (fun c ->
          if List.exists (Bgp.Asn.equal a.asn) c.providers then
            List.iter
              (fun p ->
                announce ~communities:backup_signal peer p [ a.asn; c.asn ]
                  ~med:None)
              c.as_prefixes)
        ases)
    public_peers;

  (* route server: a fraction of small stubs are IXP members; the RS is
     transparent (it does not prepend its own ASN) *)
  (match rs_peer with
  | None -> ()
  | Some rs ->
      List.iter
        (fun a ->
          match a.kind with
          | Small_stub when Rng.chance rng_paths config.rs_member_fraction ->
              List.iter (fun p -> announce rs p [ a.asn ] ~med:None) a.as_prefixes
          | Small_stub | Eyeball | Regional -> ())
        ases);

  let all_prefixes = List.concat_map (fun a -> a.as_prefixes) ases in
  {
    pop;
    ases;
    prefix_weight =
      (fun p -> Option.value (Bgp.Ptrie.find p prefix_weight_trie) ~default:0.0);
    prefix_origin = (fun p -> Bgp.Ptrie.find p origin_trie);
    origin_region =
      (fun p ->
        match Bgp.Ptrie.find p origin_trie with
        | None -> config.pop_region
        | Some asn ->
            Option.value
              (Hashtbl.find_opt region_of_asn (Bgp.Asn.to_int asn))
              ~default:config.pop_region);
    all_prefixes;
    total_peak_bps = Units.gbps config.total_peak_gbps;
  }

(* The policy evaluation environment of a generated world: region origin
   blocks from the AS universe, interface facts from the PoP — what the
   engine needs to compile a policy's allocator side, and what tests use
   to run the interpreter against the compiled route-maps. *)
let policy_env (w : world) =
  let pop_region = Region.to_string (Pop.region w.pop) in
  let ifaces =
    List.map
      (fun iface ->
        let peers = Pop.peers_on_iface w.pop ~iface_id:(Iface.id iface) in
        {
          Ef_policy.if_id = Iface.id iface;
          if_name = Iface.name iface;
          if_shared = Iface.shared iface;
          if_region = pop_region;
          if_peer_kinds = List.sort_uniq compare (List.map Bgp.Peer.kind peers);
          if_peer_asns = List.map Bgp.Peer.asn peers;
        })
      (Pop.interfaces w.pop)
  in
  Ef_policy.env ~regions:(regions_of_ases w.ases) ~ifaces ~self_asn:(Pop.asn w.pop)
    ()
