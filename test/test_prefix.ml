(* ef_bgp: Ipv4, Prefix, Ptrie *)

module Bgp = Ef_bgp
open Helpers

let test_ipv4_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Bgp.Ipv4.to_string (Bgp.Ipv4.of_string s)))
    [ "0.0.0.0"; "10.1.2.3"; "192.168.255.1"; "255.255.255.255"; "128.0.0.1" ]

let test_ipv4_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (Option.is_none (Bgp.Ipv4.of_string_opt s)))
    [ "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "a.b.c.d"; ""; "1.2.3.-4"; "01.2.3.4567" ]

let test_ipv4_unsigned_compare () =
  let low = ip "1.0.0.0" and high = ip "255.0.0.0" in
  Alcotest.(check bool) "255 > 1" true (Bgp.Ipv4.compare high low > 0);
  Alcotest.(check bool) "1 < 255" true (Bgp.Ipv4.compare low high < 0);
  Alcotest.(check int) "equal" 0 (Bgp.Ipv4.compare low low)

let test_ipv4_succ_wraps () =
  Alcotest.check ipv4_t "wrap" (ip "0.0.0.0") (Bgp.Ipv4.succ Bgp.Ipv4.broadcast);
  Alcotest.check ipv4_t "succ" (ip "10.0.1.0")
    (Bgp.Ipv4.succ (ip "10.0.0.255"))

let test_ipv4_mask () =
  Alcotest.check ipv4_t "mask 24" (ip "10.1.2.0")
    (Bgp.Ipv4.apply_mask (ip "10.1.2.3") 24);
  Alcotest.check ipv4_t "mask 0" (ip "0.0.0.0")
    (Bgp.Ipv4.apply_mask (ip "200.1.2.3") 0);
  Alcotest.check ipv4_t "mask 32" (ip "10.1.2.3")
    (Bgp.Ipv4.apply_mask (ip "10.1.2.3") 32)

let test_ipv4_bit () =
  let a = ip "128.0.0.1" in
  Alcotest.(check bool) "bit 0" true (Bgp.Ipv4.bit a 0);
  Alcotest.(check bool) "bit 1" false (Bgp.Ipv4.bit a 1);
  Alcotest.(check bool) "bit 31" true (Bgp.Ipv4.bit a 31)

let test_prefix_normalises () =
  Alcotest.check prefix_t "host bits zeroed" (prefix "10.1.2.0/24")
    (Bgp.Prefix.make (ip "10.1.2.99") 24)

let test_prefix_parse () =
  Alcotest.(check string) "roundtrip" "10.0.0.0/8"
    (Bgp.Prefix.to_string (prefix "10.0.0.0/8"));
  Alcotest.(check bool) "bad length" true
    (Option.is_none (Bgp.Prefix.of_string_opt "10.0.0.0/33"));
  Alcotest.(check bool) "no slash" true
    (Option.is_none (Bgp.Prefix.of_string_opt "10.0.0.0"))

let test_prefix_mem () =
  let p = prefix "10.1.0.0/16" in
  Alcotest.(check bool) "inside" true (Bgp.Prefix.mem (ip "10.1.200.3") p);
  Alcotest.(check bool) "outside" false (Bgp.Prefix.mem (ip "10.2.0.0") p)

let test_prefix_subsumes () =
  Alcotest.(check bool) "parent subsumes child" true
    (Bgp.Prefix.subsumes (prefix "10.0.0.0/8") (prefix "10.1.2.0/24"));
  Alcotest.(check bool) "self subsumes" true
    (Bgp.Prefix.subsumes (prefix "10.0.0.0/8") (prefix "10.0.0.0/8"));
  Alcotest.(check bool) "child does not subsume parent" false
    (Bgp.Prefix.subsumes (prefix "10.1.2.0/24") (prefix "10.0.0.0/8"));
  Alcotest.(check bool) "siblings" false
    (Bgp.Prefix.subsumes (prefix "10.1.0.0/16") (prefix "10.2.0.0/16"))

let test_prefix_split () =
  let l, r = Bgp.Prefix.split (prefix "10.0.0.0/8") in
  Alcotest.check prefix_t "left" (prefix "10.0.0.0/9") l;
  Alcotest.check prefix_t "right" (prefix "10.128.0.0/9") r;
  Alcotest.check_raises "cannot split /32"
    (Invalid_argument "Prefix.split: /32 has no children") (fun () ->
      ignore (Bgp.Prefix.split (prefix "1.2.3.4/32")))

let test_prefix_subnets () =
  let subs = Bgp.Prefix.subnets (prefix "10.0.0.0/22") 24 in
  Alcotest.(check int) "count" 4 (List.length subs);
  Alcotest.check prefix_t "first" (prefix "10.0.0.0/24") (List.nth subs 0);
  Alcotest.check prefix_t "last" (prefix "10.0.3.0/24") (List.nth subs 3);
  List.iter
    (fun s ->
      Alcotest.(check bool) "covered" true
        (Bgp.Prefix.subsumes (prefix "10.0.0.0/22") s))
    subs

let test_prefix_size () =
  Helpers.check_float "/24" 256.0 (Bgp.Prefix.size (prefix "10.0.0.0/24"));
  Helpers.check_float "/32" 1.0 (Bgp.Prefix.size (prefix "10.0.0.1/32"))

(* --- Ptrie ----------------------------------------------------------- *)

let test_ptrie_add_find () =
  let t =
    Bgp.Ptrie.empty
    |> Bgp.Ptrie.add (prefix "10.0.0.0/8") "eight"
    |> Bgp.Ptrie.add (prefix "10.1.0.0/16") "sixteen"
  in
  Alcotest.(check (option string)) "exact /8" (Some "eight")
    (Bgp.Ptrie.find (prefix "10.0.0.0/8") t);
  Alcotest.(check (option string)) "exact /16" (Some "sixteen")
    (Bgp.Ptrie.find (prefix "10.1.0.0/16") t);
  Alcotest.(check (option string)) "absent" None
    (Bgp.Ptrie.find (prefix "10.1.2.0/24") t)

let test_ptrie_replace () =
  let t =
    Bgp.Ptrie.empty
    |> Bgp.Ptrie.add (prefix "10.0.0.0/8") 1
    |> Bgp.Ptrie.add (prefix "10.0.0.0/8") 2
  in
  Alcotest.(check (option int)) "replaced" (Some 2)
    (Bgp.Ptrie.find (prefix "10.0.0.0/8") t);
  Alcotest.(check int) "cardinal" 1 (Bgp.Ptrie.cardinal t)

let test_ptrie_remove () =
  let p = prefix "10.0.0.0/8" in
  let t = Bgp.Ptrie.add p 1 Bgp.Ptrie.empty in
  let t = Bgp.Ptrie.remove p t in
  Alcotest.(check bool) "empty" true (Bgp.Ptrie.is_empty t);
  (* removing from empty is a no-op *)
  Alcotest.(check bool) "still empty" true
    (Bgp.Ptrie.is_empty (Bgp.Ptrie.remove p t))

let test_ptrie_longest_match () =
  let t =
    Bgp.Ptrie.of_list
      [
        (prefix "10.0.0.0/8", "coarse");
        (prefix "10.1.0.0/16", "mid");
        (prefix "10.1.2.0/24", "fine");
      ]
  in
  let check_lpm addr expect =
    match Bgp.Ptrie.longest_match (ip addr) t with
    | None -> Alcotest.failf "no match for %s" addr
    | Some (_, v) -> Alcotest.(check string) addr expect v
  in
  check_lpm "10.1.2.3" "fine";
  check_lpm "10.1.3.1" "mid";
  check_lpm "10.99.0.1" "coarse";
  Alcotest.(check bool) "no match" true
    (Option.is_none (Bgp.Ptrie.longest_match (ip "11.0.0.1") t))

let test_ptrie_matches_order () =
  let t =
    Bgp.Ptrie.of_list
      [ (prefix "10.0.0.0/8", 8); (prefix "10.1.0.0/16", 16); (prefix "0.0.0.0/0", 0) ]
  in
  let ms = Bgp.Ptrie.matches (ip "10.1.5.5") t in
  Alcotest.(check (list int)) "most specific first" [ 16; 8; 0 ]
    (List.map snd ms)

let test_ptrie_default_route () =
  let t = Bgp.Ptrie.add Bgp.Prefix.default "default" Bgp.Ptrie.empty in
  Alcotest.(check bool) "matches everything" true
    (Option.is_some (Bgp.Ptrie.longest_match (ip "203.0.113.7") t))

let test_ptrie_fold_order () =
  let ps =
    [ prefix "10.1.2.0/24"; prefix "10.0.0.0/8"; prefix "192.168.0.0/16" ]
  in
  let t = Bgp.Ptrie.of_list (List.map (fun p -> (p, ())) ps) in
  let keys = Bgp.Ptrie.keys t in
  Alcotest.(check int) "count" 3 (List.length keys);
  let sorted = List.sort Bgp.Prefix.compare keys in
  Alcotest.(check bool) "ascending" true (keys = sorted)

let test_ptrie_fold_reconstructs_prefixes () =
  let ps =
    [
      prefix "0.0.0.0/0";
      prefix "128.0.0.0/1";
      prefix "10.1.2.0/24";
      prefix "255.255.255.255/32";
    ]
  in
  let t = Bgp.Ptrie.of_list (List.map (fun p -> (p, ())) ps) in
  let keys = Bgp.Ptrie.keys t in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Bgp.Prefix.to_string p)
        true
        (List.exists (Bgp.Prefix.equal p) keys))
    ps

let test_ptrie_update () =
  let p = prefix "10.0.0.0/8" in
  let t = Bgp.Ptrie.empty in
  let t = Bgp.Ptrie.update p (function None -> Some 1 | Some n -> Some (n + 1)) t in
  let t = Bgp.Ptrie.update p (function None -> Some 1 | Some n -> Some (n + 1)) t in
  Alcotest.(check (option int)) "incremented" (Some 2) (Bgp.Ptrie.find p t);
  let t = Bgp.Ptrie.update p (fun _ -> None) t in
  Alcotest.(check bool) "deleted" true (Bgp.Ptrie.is_empty t)

let test_ptrie_covered () =
  let t =
    Bgp.Ptrie.of_list
      [
        (prefix "10.0.0.0/8", ());
        (prefix "10.1.0.0/16", ());
        (prefix "10.1.2.0/24", ());
        (prefix "11.0.0.0/8", ());
      ]
  in
  let covered = Bgp.Ptrie.covered (prefix "10.1.0.0/16") t in
  Alcotest.(check int) "two covered" 2 (List.length covered)

let test_ptrie_union () =
  let a = Bgp.Ptrie.of_list [ (prefix "10.0.0.0/8", 1); (prefix "11.0.0.0/8", 1) ] in
  let b = Bgp.Ptrie.of_list [ (prefix "10.0.0.0/8", 10); (prefix "12.0.0.0/8", 1) ] in
  let u = Bgp.Ptrie.union ( + ) a b in
  Alcotest.(check int) "cardinal" 3 (Bgp.Ptrie.cardinal u);
  Alcotest.(check (option int)) "merged" (Some 11)
    (Bgp.Ptrie.find (prefix "10.0.0.0/8") u)

(* --- property tests --------------------------------------------------- *)

let gen_prefix =
  QCheck.Gen.(
    map2
      (fun addr len -> Bgp.Prefix.make (Bgp.Ipv4.of_int32 (Int32.of_int addr)) len)
      (int_bound 0xFFFFFF) (int_range 4 32))

let arb_prefix = QCheck.make ~print:Bgp.Prefix.to_string gen_prefix

let qcheck_trie_vs_assoc_lpm =
  (* trie LPM must agree with a naive scan over the bindings *)
  QCheck.Test.make ~name:"ptrie LPM = naive LPM" ~count:300
    QCheck.(pair (list_of_size Gen.(int_range 0 40) arb_prefix) (int_bound 0xFFFFFFF))
    (fun (prefixes, addr_raw) ->
      let addr = Bgp.Ipv4.of_int32 (Int32.of_int addr_raw) in
      let bindings = List.map (fun p -> (p, Bgp.Prefix.to_string p)) prefixes in
      let t = Bgp.Ptrie.of_list bindings in
      let naive =
        List.fold_left
          (fun acc (p, v) ->
            if Bgp.Prefix.mem addr p then
              match acc with
              | Some (q, _) when Bgp.Prefix.length q >= Bgp.Prefix.length p -> acc
              | _ -> Some (p, v)
            else acc)
          None bindings
      in
      match (Bgp.Ptrie.longest_match addr t, naive) with
      | None, None -> true
      | Some (p1, _), Some (p2, _) -> Bgp.Prefix.equal p1 p2
      | _ -> false)

let qcheck_trie_add_remove_roundtrip =
  QCheck.Test.make ~name:"ptrie add/remove roundtrip" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 30) arb_prefix)
    (fun prefixes ->
      let uniq = List.sort_uniq Bgp.Prefix.compare prefixes in
      let t = Bgp.Ptrie.of_list (List.map (fun p -> (p, ())) uniq) in
      let emptied = List.fold_left (fun t p -> Bgp.Ptrie.remove p t) t uniq in
      Bgp.Ptrie.cardinal t = List.length uniq && Bgp.Ptrie.is_empty emptied)

(* [Ptrie.update] walks the key's path once; it must agree with the
   find-then-add/remove it replaced on every kind of answer (insert,
   replace, delete, keep, modify), and hand back the input trie itself
   when [f] answers the binding it was given *)
let qcheck_trie_update_vs_reference =
  let answers =
    [|
      (fun v _ -> Some v) (* insert, or replace *);
      (fun _ _ -> None) (* delete *);
      (fun _ o -> o) (* keep *);
      (fun _ o -> Option.map succ o) (* modify *);
    |]
  in
  let reference p f t =
    match f (Bgp.Ptrie.find p t) with
    | None -> Bgp.Ptrie.remove p t
    | Some v -> Bgp.Ptrie.add p v t
  in
  let same a b =
    List.equal
      (fun (p, v) (q, w) -> Bgp.Prefix.equal p q && v = w)
      (Bgp.Ptrie.to_list a) (Bgp.Ptrie.to_list b)
  in
  QCheck.Test.make ~name:"ptrie update = find then add/remove" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 30) (pair arb_prefix small_nat))
        (list_of_size Gen.(int_range 1 30)
           (quad small_nat arb_prefix (int_bound 3) small_nat)))
    (fun (bindings, ops) ->
      let keys = Array.of_list (List.map fst bindings) in
      (* half the ops hit a key already bound, half a random prefix *)
      let key pick fresh =
        if pick mod 2 = 0 && Array.length keys > 0 then
          keys.(pick / 2 mod Array.length keys)
        else fresh
      in
      let _, ok =
        List.fold_left
          (fun (t, ok) (pick, fresh, answer, v) ->
            let p = key pick fresh in
            let f = answers.(answer) v in
            let got = Bgp.Ptrie.update p f t in
            ( got,
              ok
              && same got (reference p f t)
              && Bgp.Ptrie.update p Fun.id t == t ))
          (Bgp.Ptrie.of_list bindings, true)
          ops
      in
      ok)

(* Prefix.Tbl picks buckets by the low bits of [mix (hash p)]; the raw
   [hash] of every /24 shares its low eight bits, which piled pop-a's
   1,309 prefixes into 9 buckets with a 346-long chain. pop-a fills
   Rate_est's 1,024 buckets and the /24s 65,536: a load of about one
   entry per bucket, so the longest chain measures the spread, not the
   load factor. *)
let test_prefix_tbl_spread () =
  let longest_chain ~size prefixes =
    let tbl = Bgp.Prefix.Tbl.create size in
    List.iter (fun p -> Bgp.Prefix.Tbl.replace tbl p ()) prefixes;
    Alcotest.(check int) "all distinct" (List.length prefixes)
      (Bgp.Prefix.Tbl.length tbl);
    (Bgp.Prefix.Tbl.stats tbl).Hashtbl.max_bucket_length
  in
  let pop_a =
    (Ef_netsim.Topo_gen.generate
       Ef_netsim.Scenario.pop_a.Ef_netsim.Scenario.topo)
      .Ef_netsim.Topo_gen.all_prefixes
  in
  Alcotest.(check bool) "pop-a chains <= 8" true
    (longest_chain ~size:1024 pop_a <= 8);
  let base = ip "10.0.0.0" in
  let slash24s =
    List.init 65_536 (fun i -> Bgp.Prefix.make (Bgp.Ipv4.add base (i * 256)) 24)
  in
  Alcotest.(check bool) "65,536 consecutive /24s chains <= 8" true
    (longest_chain ~size:65_536 slash24s <= 8)

let qcheck_prefix_subnets_cover =
  QCheck.Test.make ~name:"subnets partition the parent" ~count:200
    QCheck.(
      pair
        (make ~print:Bgp.Prefix.to_string
           Gen.(
             map2
               (fun addr len ->
                 Bgp.Prefix.make (Bgp.Ipv4.of_int32 (Int32.of_int addr)) len)
               (int_bound 0xFFFFFF) (int_range 8 24)))
        (int_range 0 4))
    (fun (parent, extra) ->
      let len = min 28 (Bgp.Prefix.length parent + extra) in
      let subs = Bgp.Prefix.subnets parent len in
      List.length subs = 1 lsl (len - Bgp.Prefix.length parent)
      && List.for_all (fun s -> Bgp.Prefix.subsumes parent s) subs)

let suite =
  [
    Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip;
    Alcotest.test_case "ipv4 parse errors" `Quick test_ipv4_parse_errors;
    Alcotest.test_case "ipv4 unsigned compare" `Quick test_ipv4_unsigned_compare;
    Alcotest.test_case "ipv4 succ wraps" `Quick test_ipv4_succ_wraps;
    Alcotest.test_case "ipv4 mask" `Quick test_ipv4_mask;
    Alcotest.test_case "ipv4 bit" `Quick test_ipv4_bit;
    Alcotest.test_case "prefix normalises" `Quick test_prefix_normalises;
    Alcotest.test_case "prefix parse" `Quick test_prefix_parse;
    Alcotest.test_case "prefix mem" `Quick test_prefix_mem;
    Alcotest.test_case "prefix subsumes" `Quick test_prefix_subsumes;
    Alcotest.test_case "prefix split" `Quick test_prefix_split;
    Alcotest.test_case "prefix subnets" `Quick test_prefix_subnets;
    Alcotest.test_case "prefix size" `Quick test_prefix_size;
    Alcotest.test_case "prefix table spreads /24s" `Quick test_prefix_tbl_spread;
    Alcotest.test_case "ptrie add/find" `Quick test_ptrie_add_find;
    Alcotest.test_case "ptrie replace" `Quick test_ptrie_replace;
    Alcotest.test_case "ptrie remove" `Quick test_ptrie_remove;
    Alcotest.test_case "ptrie longest match" `Quick test_ptrie_longest_match;
    Alcotest.test_case "ptrie matches order" `Quick test_ptrie_matches_order;
    Alcotest.test_case "ptrie default route" `Quick test_ptrie_default_route;
    Alcotest.test_case "ptrie fold order" `Quick test_ptrie_fold_order;
    Alcotest.test_case "ptrie fold reconstructs" `Quick
      test_ptrie_fold_reconstructs_prefixes;
    Alcotest.test_case "ptrie update" `Quick test_ptrie_update;
    Alcotest.test_case "ptrie covered" `Quick test_ptrie_covered;
    Alcotest.test_case "ptrie union" `Quick test_ptrie_union;
    QCheck_alcotest.to_alcotest qcheck_trie_vs_assoc_lpm;
    QCheck_alcotest.to_alcotest qcheck_trie_add_remove_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_trie_update_vs_reference;
    QCheck_alcotest.to_alcotest qcheck_prefix_subnets_cover;
  ]
